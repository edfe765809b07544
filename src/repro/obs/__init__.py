"""Observability: metrics, tracing, and structured run telemetry.

Three layers behind one process-global switch:

* :class:`MetricsRegistry` -- counters, gauges, fixed-bucket histograms,
  streaming quantile sketches and EWMA timers, with a strict no-op fast
  path when telemetry is off (<2% overhead on a training loop, bounded by
  ``benchmarks/bench_observability.py``);
* hierarchical tracing -- ``span("trainer.fit")`` context managers
  measuring wall + CPU time with nesting, exportable as JSONL events;
* :class:`RunLog` -- a schema-versioned JSONL event writer covering
  trainer steps, self-training rounds, engine/cache stats and serving
  traces.

Enable with :func:`telemetry_session` (the CLI's ``--telemetry out.jsonl``
/ ``--trace`` flags do) and render a run afterwards with
``repro obs-report``. See ``docs/OBSERVABILITY.md``.
"""

from .merge import merge_metric, merge_snapshots
from .registry import (
    DEFAULT_BUCKETS, NULL_REGISTRY, Counter, EwmaTimer, Gauge, Histogram,
    MetricsRegistry, NullMetric, NullRegistry, QuantileSketch,
)
from .resources import (
    ResourceMeter, ResourceReport, format_bytes, format_seconds,
)
from .serving import (
    TRACE_STAGES, DriftConfig, DriftMonitor, RequestTracer, SloObjectives,
    SloTracker, TraceContext, format_trace, stitch_trace,
)
from .runlog import (
    EVENT_FIELDS, SCHEMA_VERSION, VOLATILE_FIELDS, RunLog, is_volatile_field,
    iter_events, read_events, strip_volatile, validate_record,
)
from .telemetry import (
    DISABLED, DisabledTelemetry, Telemetry, get_telemetry, install_telemetry,
    span, telemetry_session, uninstall_telemetry,
)
from .tracing import NULL_SPAN, Span, Tracer

__all__ = [
    # registry
    "MetricsRegistry", "NullRegistry", "NullMetric", "NULL_REGISTRY",
    "Counter", "Gauge", "Histogram", "QuantileSketch", "EwmaTimer",
    "DEFAULT_BUCKETS",
    # tracing
    "Tracer", "Span", "NULL_SPAN",
    # run log
    "RunLog", "SCHEMA_VERSION", "EVENT_FIELDS", "VOLATILE_FIELDS",
    "read_events", "iter_events", "validate_record", "strip_volatile",
    "is_volatile_field",
    # telemetry session
    "Telemetry", "DisabledTelemetry", "DISABLED", "get_telemetry",
    "install_telemetry", "uninstall_telemetry", "telemetry_session", "span",
    # resources
    "ResourceMeter", "ResourceReport", "format_seconds", "format_bytes",
    # snapshot merging (pool-wide /metrics)
    "merge_snapshots", "merge_metric",
    # serving observability
    "TraceContext", "RequestTracer", "stitch_trace", "format_trace",
    "TRACE_STAGES", "SloObjectives", "SloTracker", "DriftConfig",
    "DriftMonitor",
]
