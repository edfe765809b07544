"""The telemetry session: registry + tracer + run log behind one switch.

Instrumented code never checks configuration flags; it asks for the active
session and uses it::

    from ..obs import get_telemetry

    tel = get_telemetry()
    tel.metrics.counter("trainer.steps").inc()
    with tel.span("trainer.fit"):
        ...
        if tel.enabled:
            tel.event("trainer.step", step=i, loss=loss)

With no session installed, :func:`get_telemetry` returns the shared
:data:`DISABLED` sentinel: ``metrics`` is the null registry, ``span`` the
shared no-op context manager, ``event`` a pass statement -- the strict
no-op fast path whose overhead ``benchmarks/bench_observability.py``
bounds below 2%. The ``if tel.enabled:`` guard is only needed where
*assembling* the event payload itself costs something.

Sessions are installed with :func:`telemetry_session` (a context manager)
or :func:`install_telemetry` / :func:`uninstall_telemetry`; installs nest,
restoring the previous session on exit.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Union

from .registry import NULL_REGISTRY, MetricsRegistry
from .runlog import RunLog
from .tracing import NULL_SPAN, Tracer


class DisabledTelemetry:
    """The no-op session every call site sees when telemetry is off."""

    __slots__ = ()
    enabled = False
    metrics = NULL_REGISTRY
    runlog = None
    tracer = None

    def event(self, kind: str, **fields) -> None:
        pass

    def span(self, name: str, **attrs):
        return NULL_SPAN

    def close(self) -> None:
        pass


DISABLED = DisabledTelemetry()


class Telemetry:
    """One enabled observability session.

    ``runlog`` is optional -- a session without one still collects
    metrics and spans in memory (tests and the benchmark harness use
    this). ``trace=True`` streams finished spans to the run log as
    ``span`` events; spans are always timed and kept on the tracer.
    """

    enabled = True

    def __init__(self, runlog: Optional[RunLog] = None,
                 trace: bool = False,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.runlog = runlog
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        sink = self._span_sink if (trace and runlog is not None) else None
        self.tracer = Tracer(sink=sink)
        self.trace = trace

    def _span_sink(self, record: dict) -> None:
        if self.runlog is not None and not self.runlog.closed:
            self.runlog.event("span", **record)

    def event(self, kind: str, **fields) -> None:
        """Write a structured event to the run log (no-op without one)."""
        if self.runlog is not None and not self.runlog.closed:
            self.runlog.event(kind, **fields)

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    def snapshot_metrics(self) -> dict:
        return self.metrics.snapshot()

    def close(self) -> None:
        """Flush the final metrics snapshot and close the run log."""
        if self.runlog is not None and not self.runlog.closed:
            snap = self.snapshot_metrics()
            if snap:
                self.runlog.event("metrics.snapshot", metrics=snap)
            self.runlog.close()


TelemetryLike = Union[Telemetry, DisabledTelemetry]

_ACTIVE: TelemetryLike = DISABLED


def get_telemetry() -> TelemetryLike:
    """The active session, or the shared disabled sentinel."""
    return _ACTIVE


def install_telemetry(session: Telemetry) -> TelemetryLike:
    """Make ``session`` the process-global session; returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = session
    return previous


def uninstall_telemetry(previous: Optional[TelemetryLike] = None) -> None:
    """Restore ``previous`` (default: fully disabled)."""
    global _ACTIVE
    _ACTIVE = previous if previous is not None else DISABLED


@contextmanager
def telemetry_session(path: Optional[Union[str, Path]] = None,
                      trace: bool = False,
                      metrics: Optional[MetricsRegistry] = None):
    """Install a telemetry session for the duration of the block.

    ``path`` targets the JSONL run log (omit for in-memory-only metrics
    and spans); ``trace`` additionally streams span events. On exit the
    final metrics snapshot is flushed, the log closed, and the previously
    active session (usually: none) restored.
    """
    runlog = RunLog(path) if path is not None else None
    session = Telemetry(runlog=runlog, trace=trace, metrics=metrics)
    previous = install_telemetry(session)
    try:
        yield session
    finally:
        uninstall_telemetry(previous)
        session.close()


def span(name: str, **attrs):
    """Span on the active session (the shared no-op when disabled)."""
    return _ACTIVE.span(name, **attrs)

