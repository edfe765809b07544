"""Tests for the telemetry session: install/uninstall, events, spans."""

import io

from repro.obs import (
    DISABLED, MetricsRegistry, RunLog, Telemetry, get_telemetry,
    install_telemetry, read_events, telemetry_session, uninstall_telemetry,
)
from repro.obs import span as module_span


class TestSessionLifecycle:
    def test_default_is_disabled(self):
        tel = get_telemetry()
        assert tel is DISABLED and not tel.enabled
        tel.event("anything", loss=1.0)  # no-op, no error
        with tel.span("anything") as inner:
            assert inner is None

    def test_install_uninstall_nest(self):
        outer = Telemetry()
        inner = Telemetry()
        previous = install_telemetry(outer)
        try:
            assert get_telemetry() is outer
            prev_inner = install_telemetry(inner)
            assert get_telemetry() is inner
            uninstall_telemetry(prev_inner)
            assert get_telemetry() is outer
        finally:
            uninstall_telemetry(previous)
        assert get_telemetry() is DISABLED

    def test_context_manager_restores_on_error(self, tmp_path):
        try:
            with telemetry_session(path=tmp_path / "t.jsonl"):
                assert get_telemetry().enabled
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert get_telemetry() is DISABLED

    def test_module_level_span_follows_session(self):
        with telemetry_session() as tel:
            with module_span("phase"):
                pass
        assert [s["name"] for s in tel.tracer.spans] == ["phase"]


class TestSessionOutput:
    def test_close_flushes_metrics_snapshot(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with telemetry_session(path=path) as tel:
            tel.metrics.counter("x").inc(3)
        events = read_events(path)
        assert events[-1]["kind"] == "metrics.snapshot"
        assert events[-1]["metrics"]["x"]["value"] == 3

    def test_trace_streams_span_events(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with telemetry_session(path=path, trace=True) as tel:
            with tel.span("outer"):
                with tel.span("inner"):
                    pass
        spans = read_events(path, kind="span")
        assert [s["name"] for s in spans] == ["inner", "outer"]

    def test_without_trace_spans_stay_in_memory(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with telemetry_session(path=path) as tel:
            with tel.span("quiet"):
                pass
        assert read_events(path, kind="span") == []
        assert [s["name"] for s in tel.tracer.spans] == ["quiet"]

    def test_session_without_path_collects_in_memory(self):
        with telemetry_session() as tel:
            tel.metrics.counter("x").inc()
            tel.event("ignored.kind", value=1)  # no runlog: dropped
        assert tel.runlog is None
        assert tel.snapshot_metrics()["x"]["value"] == 1

    def test_injected_registry_survives_session(self):
        registry = MetricsRegistry()
        with telemetry_session(metrics=registry) as tel:
            tel.metrics.counter("x").inc()
        assert registry.counter("x").value == 1

    def test_events_after_close_are_dropped(self):
        buffer = io.StringIO()
        session = Telemetry(runlog=RunLog(buffer))
        session.close()
        session.event("late.kind", value=1)  # silently dropped, no error
        assert "late.kind" not in buffer.getvalue()
