"""Render human-readable summaries of telemetry JSONL run logs.

One renderer per section, each returning ``""`` when the run recorded no
events that feed it, plus :func:`render_report` which joins the non-empty
ones. ``repro obs-report`` prints it, so training runs and serving
sessions read through the same lens.

A single log may interleave several event streams -- a serving process
emitting ``serve.*`` events while a training run writes ``trainer.*``
events, or two runs concatenated into one file. Renderers therefore never
assume a single-run schema: unknown kinds are ignored, span indexes may
repeat (each repeat starts a new stream segment in the phase breakdown),
and serving sections coexist with training sections.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List

from ..eval import render_series, render_table
from .serving import TRACE_STAGES, RequestTracer, format_trace

__all__ = [
    "group_events", "render_report",
    "render_header", "render_loss_curve", "render_throughput",
    "render_self_training", "render_engine",
    "render_traces", "render_slo", "render_drift", "render_phases",
]


def group_events(events: Iterable[dict]) -> Dict[str, List[dict]]:
    """Bucket parsed telemetry records by their ``kind``."""
    grouped: Dict[str, List[dict]] = defaultdict(list)
    for event in events:
        grouped[event["kind"]].append(event)
    return grouped


# ---------------------------------------------------------------------------
# training-run sections
# ---------------------------------------------------------------------------


def render_header(grouped) -> str:
    lines = []
    for start in grouped.get("run.start", []):
        lines.append(f"run: {start.get('method', '?')} on "
                     f"{start.get('dataset', '?')} "
                     f"(seed {start.get('seed', '?')}, "
                     f"{start.get('labeled', '?')} labeled / "
                     f"{start.get('unlabeled', '?')} unlabeled / "
                     f"{start.get('test', '?')} test)")
    for summary in grouped.get("run.summary", []):
        parts = [f"F1={summary['f1']:.1f}"]
        if "precision" in summary:
            parts.insert(0, f"P={summary['precision']:.1f}")
        if "recall" in summary:
            parts.insert(1, f"R={summary['recall']:.1f}")
        if "elapsed_seconds" in summary:
            parts.append(f"in {summary['elapsed_seconds']:.1f}s")
        lines.append("result: " + " ".join(parts))
    return "\n".join(lines)


def render_loss_curve(grouped) -> str:
    epochs = grouped.get("trainer.epoch", [])
    if not epochs:
        return ""
    labels = [f"{i}:{e['epoch']}" for i, e in enumerate(epochs)] \
        if len({e["epoch"] for e in epochs}) != len(epochs) \
        else [e["epoch"] for e in epochs]
    series = {"loss": [e["loss"] for e in epochs]}
    if any(e.get("valid_f1") is not None for e in epochs):
        series["valid F1"] = [e.get("valid_f1") for e in epochs]
    return render_series("Loss curve (all fits, in order)", "epoch",
                         labels, series, decimals=4)


def render_throughput(grouped) -> str:
    epochs = [e for e in grouped.get("trainer.epoch", [])
              if e.get("tokens_per_sec")]
    if not epochs:
        return ""
    rows = [[i, e["epoch"], e.get("tokens", 0),
             f"{e['tokens_per_sec']:.0f}",
             f"{e.get('examples_per_sec', 0.0):.0f}"]
            for i, e in enumerate(epochs)]
    return render_table(["#", "epoch", "tokens", "tok/s", "ex/s"], rows,
                        title="Throughput")


def render_self_training(grouped) -> str:
    rounds = grouped.get("selftrain.round", [])
    if not rounds:
        return ""
    rows = [[r["iteration"], f"{r['teacher_f1']:.3f}",
             f"{r.get('student_f1', 0.0):.3f}", r["pseudo_added"],
             r.get("pseudo_positive", "?"), r.get("pruned", 0),
             r.get("train_size", "?")]
            for r in rounds]
    return render_table(
        ["iter", "teacher F1", "student F1", "pseudo", "+", "pruned",
         "train"], rows, title="Self-training rounds")


def render_engine(grouped) -> str:
    stats = grouped.get("engine.stats", [])
    if not stats:
        return ""
    rows = [[s.get("scope", "?"), s.get("pairs", 0), s.get("batches", 0),
             f"{s.get('pairs_per_sec', 0.0):.0f}",
             f"{s.get('cache_hit_rate', 0.0):.1%}",
             f"{s.get('padding_fraction', 0.0):.1%}"]
            for s in stats]
    return render_table(
        ["scope", "pairs", "batches", "pairs/s", "cache hit", "padding"],
        rows, title="Inference engine")


# ---------------------------------------------------------------------------
# serving sections
# ---------------------------------------------------------------------------


def render_traces(grouped, samples: int = 3) -> str:
    """Stage-mean table over every ``serve.trace`` event plus a few
    sample trace trees (the most recent requests)."""
    traces = grouped.get("serve.trace", [])
    if not traces:
        return ""
    tracer = RequestTracer(capacity=max(samples, 1))
    for tree in traces:
        tracer.record(tree)
    agg = tracer.aggregate()
    mean_wall = agg["mean_wall_seconds"]
    rows = []
    for name in TRACE_STAGES:
        mean = agg["stage_mean_seconds"][name]
        share = mean / mean_wall * 100.0 if mean_wall > 0 else 0.0
        rows.append([name, f"{mean * 1000:.3f}ms", f"{share:.1f}%"])
    rows.append(["total", f"{mean_wall * 1000:.3f}ms", "100.0%"])
    lines = [render_table(
        ["stage", "mean wall", "share"], rows,
        title=f"Request traces ({agg['requests']} requests)")]

    def counts(label: str, table: dict) -> str:
        parts = ", ".join(f"{key}: {value}"
                          for key, value in table.items())
        return f"{label}: {parts}" if parts else ""

    for line in (counts("by replica", agg["by_replica"]),
                 counts("by tenant", agg["by_tenant"])):
        if line:
            lines.append(line)
    recent = tracer.recent(samples)
    if recent:
        lines.append("sample traces:")
        for tree in recent:
            lines.extend(format_trace(tree))
    return "\n".join(lines)


def render_slo(grouped) -> str:
    """Per-tenant SLO table from the final ``serve.slo`` snapshot."""
    snapshots = grouped.get("serve.slo", [])
    if not snapshots:
        return ""
    final = snapshots[-1]
    tenants = final.get("tenants", {}) or {}
    objectives = final.get("objectives", {}) or {}
    quantile = objectives.get("latency_quantile", 0.95)
    rows = []
    for label in sorted(tenants):
        t = tenants[label]
        rows.append([
            label, t.get("requests", 0), t.get("errors", 0),
            t.get("sheds", 0),
            f"{t.get('latency_q_seconds', 0.0) * 1000:.2f}ms",
            f"{t.get('error_rate', 0.0):.2%}",
            f"{t.get('shed_rate', 0.0):.2%}",
            "ok" if t.get("ok") else "VIOLATED",
        ])
    title = "Per-tenant SLOs"
    if objectives:
        title += (f" (p{quantile * 100:.0f} <= "
                  f"{objectives.get('latency_s', 0.0) * 1000:.0f}ms, "
                  f"errors <= {objectives.get('max_error_rate', 0.0):.1%}, "
                  f"sheds <= {objectives.get('max_shed_rate', 0.0):.1%})")
    return render_table(
        ["tenant", "requests", "errors", "sheds",
         f"p{quantile * 100:.0f} latency", "error rate", "shed rate",
         "status"], rows, title=title)


def render_drift(grouped) -> str:
    """Chronological list of fired ``serve.drift`` events."""
    events = grouped.get("serve.drift", [])
    if not events:
        return ""
    rows = []
    for event in events:
        detail = f"psi={event.get('psi', 0.0):.3f}"
        if event.get("drift_kind") == "match_rate":
            detail = (f"ewma={event.get('match_rate_ewma', 0.0):.3f} "
                      f"ref={event.get('reference_match_rate', 0.0):.3f}")
        rows.append([event.get("tenant", "?"),
                     event.get("drift_kind", "?"), detail])
    return render_table(["tenant", "kind", "detail"], rows,
                        title=f"Drift events ({len(events)} fired)")


# ---------------------------------------------------------------------------
# span tree
# ---------------------------------------------------------------------------


def render_phases(grouped) -> str:
    """Span tree with *self* time (wall minus direct children).

    Interleaved logs make span indexes repeat or reset (each tracer
    numbers its own spans from zero). Spans are therefore split into
    stream segments -- a repeated index starts a new segment -- and
    parent/child wall attribution never crosses a segment boundary.
    """
    spans = grouped.get("span", [])
    if not spans:
        return ""
    segments: List[List[dict]] = []
    current: List[dict] = []
    seen: set = set()
    for span in spans:
        index = span.get("index")
        if index in seen:
            segments.append(current)
            current, seen = [], set()
        current.append(span)
        seen.add(index)
    if current:
        segments.append(current)
    rows = []
    for number, segment in enumerate(segments):
        if len(segments) > 1:
            rows.append([f"stream {number}", "", "", ""])
        child_wall = defaultdict(float)
        for span in segment:
            if span.get("parent") is not None:
                child_wall[span["parent"]] += span.get("wall", 0.0)
        indent = "  " if len(segments) > 1 else ""
        for span in sorted(segment, key=lambda s: s.get("index", 0)):
            wall = span.get("wall", 0.0)
            rows.append([
                indent + ("  " * span.get("depth", 0)) + span.get("name", "?"),
                f"{wall:.3f}s",
                f"{max(wall - child_wall[span.get('index')], 0.0):.3f}s",
                f"{span.get('cpu', 0.0):.3f}s"])
    return render_table(["Phase", "Wall", "Self", "CPU"], rows,
                        title="Per-phase time breakdown")


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def render_report(events, trace_samples: int = 3) -> str:
    """Join every non-empty section for one parsed event stream."""
    grouped = group_events(events)
    sections = [render_header(grouped), render_loss_curve(grouped),
                render_throughput(grouped), render_self_training(grouped),
                render_engine(grouped),
                render_traces(grouped, samples=trace_samples),
                render_slo(grouped), render_drift(grouped),
                render_phases(grouped)]
    return "\n\n".join(s for s in sections if s)
