"""CLI: the ``serve`` subcommand and ``run --save-bundle`` flag."""

import json

import pytest

from repro.cli import build_parser, main
from repro.data.io import _record_to_dict


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--bundle", "b"])
        assert args.bundle == "b"
        assert args.port == 8080
        assert args.max_queue == 256
        assert args.max_batch_pairs == 32
        assert args.token_budget == 2048
        assert args.requests is None and args.catalog is None

    def test_serve_requires_bundle(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_run_accepts_save_bundle(self):
        args = build_parser().parse_args(["run", "--save-bundle", "out"])
        assert args.save_bundle == "out"

    def test_console_script_entry_point_declared(self):
        import re
        from pathlib import Path

        pyproject = (Path(__file__).resolve().parents[2] /
                     "pyproject.toml").read_text()
        assert re.search(r'^\s*repro\s*=\s*"repro\.cli:main"\s*$',
                         pyproject, re.M)


class TestServeJSONLMode:
    def test_batch_requests_roundtrip(self, bundle, dataset, pairs,
                                      tmp_path, capsys):
        bundle.save(tmp_path / "b")
        requests = tmp_path / "req.jsonl"
        with open(requests, "w") as f:
            for pair in pairs[:4]:
                f.write(json.dumps({
                    "op": "score",
                    "left": _record_to_dict(pair.left),
                    "right": _record_to_dict(pair.right)}) + "\n")
            f.write(json.dumps({
                "op": "match", "k": 2,
                "record": _record_to_dict(
                    dataset.left_table.records[0])}) + "\n")

        catalog = tmp_path / "catalog.jsonl"
        with open(catalog, "w") as f:
            for record in dataset.right_table:
                f.write(json.dumps(_record_to_dict(record)) + "\n")

        output = tmp_path / "out.jsonl"
        code = main(["serve", "--bundle", str(tmp_path / "b"),
                     "--requests", str(requests),
                     "--output", str(output),
                     "--catalog", str(catalog),
                     "--max-batch-pairs", "4"])
        assert code == 0
        responses = [json.loads(line)
                     for line in output.read_text().splitlines()]
        assert len(responses) == 5
        for response in responses[:4]:
            assert response["status"] == "ok"
            assert response["op"] == "score"
            assert response["model_version"] == 1
        assert responses[4]["op"] == "match"
        assert responses[4]["candidates"]
        err = capsys.readouterr().err
        assert "indexed" in err and "served" in err


class TestServeSeeding:
    def test_server_and_pool_seed_alike(self, bundle, dataset, tmp_path,
                                        capsys):
        """``--catalog`` and ``--clk-catalog`` seed one process and a
        2-replica pool through the same front: a match and a clk_match
        request find the same candidates on both."""
        import base64

        from repro.privacy import ClkCatalog, clk_to_bytes

        bundle.save(tmp_path / "b")
        catalog = tmp_path / "catalog.jsonl"
        with open(catalog, "w") as f:
            for record in dataset.right_table:
                f.write(json.dumps(_record_to_dict(record)) + "\n")
        clk_dir = tmp_path / "clk"
        assert main(["clk-encode", "--catalog", str(catalog), "--salt", "s",
                     "--out", str(clk_dir), "--nbits", "256",
                     "--hashes", "8"]) == 0
        probe_id = dataset.right_table.records[3].record_id
        probe = ClkCatalog.load(clk_dir).get(probe_id)
        requests = tmp_path / "req.jsonl"
        with open(requests, "w") as f:
            f.write(json.dumps({
                "op": "match", "k": 3,
                "record": _record_to_dict(
                    dataset.left_table.records[0])}) + "\n")
            f.write(json.dumps({
                "op": "clk_match", "id": "q", "k": 3,
                "clk": base64.b64encode(clk_to_bytes(probe)).decode()})
                + "\n")

        found = {}
        for replicas in (0, 2):
            output = tmp_path / f"out{replicas}.jsonl"
            assert main(["serve", "--bundle", str(tmp_path / "b"),
                         "--requests", str(requests),
                         "--output", str(output),
                         "--catalog", str(catalog),
                         "--clk-catalog", str(clk_dir),
                         "--replicas", str(replicas)]) == 0
            match, clk = [json.loads(line)
                          for line in output.read_text().splitlines()]
            found[replicas] = (
                sorted(c["record"]["id"] for c in match["candidates"]),
                [c["id"] for c in clk["candidates"]])
            err = capsys.readouterr().err
            assert "seeded" in err and "indexed" in err
        assert found[0] == found[2]
        matched, clk_ids = found[0]
        assert len(matched) == 3 and clk_ids[0] == probe_id


class TestTenantCLI:
    def test_tune_parser_defaults(self):
        args = build_parser().parse_args(["tune", "--bundle", "b",
                                          "--out", "o"])
        assert args.peft == "soft_prompt"
        assert args.bottleneck == 8
        assert args.dataset == "REL-HETER"
        assert args.lr == 1e-2  # PEFT default, larger than full tuning

    def test_serve_accepts_tenants_dir(self):
        args = build_parser().parse_args(["serve", "--bundle", "b",
                                          "--tenants", "deltas"])
        assert args.tenants == "deltas"
        assert args.tenant_capacity == 64
        assert not args.no_fuse_tenants

    def test_bundle_info_full(self, bundle, tmp_path, capsys):
        bundle.save(tmp_path / "b")
        assert main(["bundle-info", str(tmp_path / "b")]) == 0
        out = capsys.readouterr().out
        assert "kind:           full" in out
        assert "schema version: 1" in out
        assert "name:           tiny" in out
        assert "trainable" in out and "fingerprint:" in out

    def test_bundle_info_delta(self, backbone, tmp_path, capsys):
        from repro.core import apply_peft
        from repro.lm import load_pretrained
        from repro.serve import DeltaBundle

        from .conftest import make_model

        model = make_model(load_pretrained("minilm-tiny"))
        apply_peft(model, "soft_prompt")
        DeltaBundle.from_model(model, name="acme",
                               threshold=0.7).save(tmp_path / "d")
        assert main(["bundle-info", str(tmp_path / "d")]) == 0
        out = capsys.readouterr().out
        assert "kind:           delta" in out
        assert "peft:           soft_prompt" in out
        assert "name:           acme" in out
        assert "threshold:      0.7" in out
        assert "backbone pin:   " in out

    def test_bundle_info_missing_manifest(self, tmp_path):
        with pytest.raises(SystemExit, match="bundle.json"):
            main(["bundle-info", str(tmp_path)])
