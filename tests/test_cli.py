"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.dataset == "REL-HETER"
        assert args.method == "PromptEM"
        assert args.rate is None

    def test_export_args(self):
        args = build_parser().parse_args(["export", "REL-HETER", "out.json"])
        assert args.dataset == "REL-HETER" and args.output == "out.json"


class TestCommands:
    def test_datasets_lists_all_eight(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("REL-HETER", "SEMI-HOMO", "GEO-HETER"):
            assert name in out

    def test_export_bundle(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        assert main(["export", "REL-HETER", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["name"] == "REL-HETER"

    def test_export_machamp(self, tmp_path):
        out = tmp_path / "mc"
        assert main(["export", "REL-HETER", str(out), "--machamp"]) == 0
        assert (out / "left.json").exists()
        assert (out / "train.csv").exists()

    def test_run_tdmatch_on_exported_file(self, tmp_path, capsys):
        """End-to-end: export a dataset, run a label-free matcher on it."""
        bundle = tmp_path / "d.json"
        main(["export", "REL-HETER", str(bundle)])
        code = main(["run", "--from-file", str(bundle), "--method", "TDmatch",
                     "--rate", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "TDmatch on REL-HETER" in out
        assert "F1=" in out

    def test_run_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--method", "GPT-9"])


class TestTelemetry:
    def test_flags_default_off(self):
        args = build_parser().parse_args(["run"])
        assert args.telemetry is None and args.trace is False

    def test_run_writes_schema_valid_jsonl(self, tmp_path, capsys,
                                           monkeypatch):
        """End-to-end: a --telemetry run covers trainer steps, self-training
        rounds and engine cache stats, and every record passes schema
        validation."""
        from repro.core import PromptEM, PromptEMConfig
        from repro.lm import load_pretrained
        from repro.obs import read_events

        lm, tok = load_pretrained("minilm-tiny")

        def tiny_matcher(method, model_name):
            cfg = PromptEMConfig(model_name="minilm-tiny", teacher_epochs=2,
                                 student_epochs=2, mc_passes=2,
                                 unlabeled_cap=8, batch_size=8, max_len=64)
            return PromptEM(cfg, lm=lm, tokenizer=tok)

        monkeypatch.setattr("repro.cli._make_matcher", tiny_matcher)
        path = tmp_path / "run.jsonl"
        code = main(["run", "--dataset", "REL-HETER",
                     "--telemetry", str(path), "--trace"])
        assert code == 0

        events = read_events(path, validate=True)  # every record validates
        kinds = {e["kind"] for e in events}
        assert {"run.start", "run.summary", "trainer.fit.start",
                "trainer.step", "trainer.epoch", "selftrain.round",
                "engine.stats", "span", "metrics.snapshot"} <= kinds
        summary = [e for e in events if e["kind"] == "run.summary"][-1]
        assert summary["f1"] >= 0
        out = capsys.readouterr().out
        assert "Per-phase time breakdown" in out  # --trace summary printed

    def test_trace_without_telemetry_prints_breakdown(self, tmp_path,
                                                      capsys, monkeypatch):
        from repro.baselines import TDmatch, TDmatchConfig

        monkeypatch.setattr(
            "repro.cli._make_matcher",
            lambda *a, **k: TDmatch(TDmatchConfig(num_walks=2, walk_length=5,
                                                  dimensions=8)))
        code = main(["run", "--dataset", "REL-HETER", "--trace"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Per-phase time breakdown" in out
