"""Pool-wide metrics aggregation: merging registry snapshots.

A :class:`~repro.serve.pool.ServingPool` runs one
:class:`~repro.obs.MetricsRegistry` per process -- the router's plus one
inside every forked replica.  Each process's snapshot is correct for its
own slice of the traffic; ``GET /metrics`` must reflect the whole pool.
The parent pulls each replica's snapshot over its pipe when it reads the
metrics (a stopping replica sends a final one with its stop ack) and
merges them here.

Merging is defined *per metric kind* on the plain snapshot dicts the
registry already produces, so no live metric objects ever cross a process
boundary:

* **counter** -- values sum (each process's counter is its own monotonic
  total, so summing full snapshots is exact; no delta bookkeeping);
* **gauge** -- last-write-wins: the source with the most ``writes`` owns
  the value (ties break on source label order); ``writes`` sum.  Gauges
  that must stay per-process (queue depths, per-replica outstanding)
  should encode the process in their *name* -- the pool's
  ``pool.replica<i>.outstanding`` gauges already do;
* **histogram** -- bucket-wise count addition over the union of bounds,
  plus count/sum/min/max combination (mean is recomputed);
* **quantiles** -- reservoirs merge: when sources carry their sample
  lists (``snapshot(include_samples=True)``), the merged quantiles are
  recomputed over the pooled samples; otherwise the estimate degrades
  gracefully to a count-weighted average of the per-source quantiles;
* **timer** -- count/sum add, ``ewma`` is the count-weighted mean of the
  source EWMAs, ``last`` comes from the source with the most
  observations.

A metric only one source holds merges to that source's snapshot as it is
(without its reservoir), so a single-process view merges to itself.

A name bound to different kinds in different sources raises -- silently
aliasing a counter onto a histogram would corrupt both, exactly the rule
:class:`~repro.obs.MetricsRegistry` enforces within one process.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

__all__ = ["merge_metric", "merge_snapshots"]


def _merge_counter(entries: List[Tuple[str, dict]]) -> dict:
    return {"kind": "counter",
            "value": sum(snap.get("value", 0.0) for _, snap in entries)}


def _merge_gauge(entries: List[Tuple[str, dict]]) -> dict:
    # last-write-wins by observed write count; label order breaks ties so
    # the merge is deterministic for a given source mapping
    owner = max(entries, key=lambda item: (item[1].get("writes", 0),
                                           item[0]))
    return {"kind": "gauge",
            "value": owner[1].get("value", 0.0),
            "writes": sum(snap.get("writes", 0) for _, snap in entries)}


def _merge_histogram(entries: List[Tuple[str, dict]]) -> dict:
    buckets: Dict[str, float] = {}
    count = 0
    total = 0.0
    overflow = 0
    lo = float("inf")
    hi = float("-inf")
    for _, snap in entries:
        for bound, bucket_count in snap.get("buckets", {}).items():
            buckets[bound] = buckets.get(bound, 0) + bucket_count
        count += snap.get("count", 0)
        total += snap.get("sum", 0.0)
        overflow += snap.get("overflow", 0)
        if snap.get("count", 0):
            lo = min(lo, snap.get("min", lo))
            hi = max(hi, snap.get("max", hi))
    ordered = {bound: buckets[bound]
               for bound in sorted(buckets, key=float)}
    return {"kind": "histogram", "count": count, "sum": total,
            "mean": total / count if count else 0.0,
            "min": lo if count else 0.0, "max": hi if count else 0.0,
            "buckets": ordered, "overflow": overflow}


def _merge_quantiles(entries: List[Tuple[str, dict]]) -> dict:
    count = 0
    total = 0.0
    lo = float("inf")
    hi = float("-inf")
    samples: List[float] = []
    sampled = True
    for _, snap in entries:
        count += snap.get("count", 0)
        total += snap.get("mean", 0.0) * snap.get("count", 0)
        if snap.get("count", 0):
            lo = min(lo, snap.get("min", lo))
            hi = max(hi, snap.get("max", hi))
        if "samples" in snap:
            samples.extend(snap["samples"])
        elif snap.get("count", 0):
            sampled = False
    merged = {"kind": "quantiles", "count": count,
              "mean": total / count if count else 0.0,
              "min": lo if count else 0.0, "max": hi if count else 0.0}
    if sampled and samples:
        ordered = sorted(samples)
        for label, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            rank = min(int(q * len(ordered)), len(ordered) - 1)
            merged[label] = ordered[rank]
    else:
        # no reservoirs shipped: degrade to a count-weighted average of
        # the per-source estimates (exact when the sources agree)
        for label in ("p50", "p90", "p99"):
            weighted = sum(snap.get(label, 0.0) * snap.get("count", 0)
                           for _, snap in entries)
            merged[label] = weighted / count if count else 0.0
    return merged


def _merge_timer(entries: List[Tuple[str, dict]]) -> dict:
    count = sum(snap.get("count", 0) for _, snap in entries)
    total = sum(snap.get("sum", 0.0) for _, snap in entries)
    ewma = (sum(snap.get("ewma", 0.0) * snap.get("count", 0)
                for _, snap in entries) / count) if count else 0.0
    owner = max(entries, key=lambda item: (item[1].get("count", 0),
                                           item[0]))
    return {"kind": "timer", "count": count, "sum": total,
            "ewma": ewma, "last": owner[1].get("last", 0.0)}


_MERGERS = {
    "counter": _merge_counter,
    "gauge": _merge_gauge,
    "histogram": _merge_histogram,
    "quantiles": _merge_quantiles,
    "timer": _merge_timer,
}


def merge_metric(name: str, entries: List[Tuple[str, dict]]) -> dict:
    """Merge one metric's per-source snapshots (``(label, snapshot)``)."""
    kinds = {snap.get("kind") for _, snap in entries}
    kinds.discard("null")
    if not kinds:
        return {"kind": "null"}
    if len(kinds) > 1:
        raise ValueError(f"metric {name!r} has conflicting kinds across "
                         f"sources: {sorted(kinds)}")
    kind = kinds.pop()
    merger = _MERGERS.get(kind)
    if merger is None:
        raise ValueError(f"metric {name!r} has unknown kind {kind!r}")
    live = [(label, snap) for label, snap in entries
            if snap.get("kind") == kind]
    if len(live) == 1:
        # nothing to combine: re-deriving a mean or a quantile from
        # ``value * count`` could round it
        return {key: value for key, value in live[0][1].items()
                if key != "samples"}
    return merger(sorted(live, key=lambda item: item[0]))


def merge_snapshots(snapshots: Mapping[str, Dict[str, dict]],
                    strict: bool = True) -> Dict[str, dict]:
    """Merge per-source registry snapshots into one pool-wide snapshot.

    ``snapshots`` maps a source label (``"router"``, ``"replica0"`` ...)
    to that process's :meth:`~repro.obs.MetricsRegistry.snapshot` dict.
    With ``strict=False`` a cross-source kind conflict drops the metric
    (annotated as kind ``conflict``) instead of raising -- the transport
    path uses this so one misbehaving replica cannot take ``/metrics``
    down.
    """
    by_name: Dict[str, List[Tuple[str, dict]]] = {}
    for label, snapshot in snapshots.items():
        if not snapshot:
            continue
        for name, metric in snapshot.items():
            by_name.setdefault(name, []).append((label, metric))
    merged: Dict[str, dict] = {}
    for name in sorted(by_name):
        try:
            merged[name] = merge_metric(name, by_name[name])
        except ValueError:
            if strict:
                raise
            merged[name] = {"kind": "conflict",
                            "sources": sorted(label for label, _
                                              in by_name[name])}
    return merged


def sample_snapshot(registry, max_samples: Optional[int] = None) -> dict:
    """A snapshot suitable for cross-process shipping: includes each
    quantile sketch's reservoir so merged quantiles stay exact."""
    return registry.snapshot(include_samples=True)
