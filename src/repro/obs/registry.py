"""Metric primitives and the process-wide registry.

Five instrument kinds, all cheap enough for per-step use:

* :class:`Counter` -- monotonically increasing count (steps, cache hits,
  shed requests);
* :class:`Gauge` -- last-written value (queue depth, cache entries);
* :class:`Histogram` -- fixed-bucket distribution (batch latencies in
  seconds, losses);
* :class:`QuantileSketch` -- streaming quantile estimates over an
  unbounded value stream via a bounded uniform reservoir (MC-Dropout
  uncertainty, EL2N scores). The subsample is driven by an internal LCG,
  so observing values never touches numpy's global rng state -- metrics
  cannot perturb training -- and the same observation sequence always
  keeps the same sample (the determinism tests rely on it);
* :class:`EwmaTimer` -- exponentially weighted moving average of observed
  durations plus count/total. By convention timer names end in
  ``_seconds`` so downstream tooling can strip them as timing data.

Disabled telemetry must cost nothing measurable (<2% on a training loop,
enforced by ``benchmarks/bench_observability.py``), so there is a strict
no-op fast path: :data:`NULL_REGISTRY` hands out one shared
:class:`NullMetric` whose methods do nothing. Call sites always write
``registry.counter("x").inc()`` unconditionally and the dispatch itself is
the only disabled-mode cost.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class Counter:
    """Monotonic count; ``inc`` with a negative amount is rejected."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """Last-written value (plus the number of writes)."""

    __slots__ = ("name", "value", "writes")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.writes = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.writes += 1

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount
        self.writes += 1

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value, "writes": self.writes}


#: default histogram bucket upper bounds -- a wide log-ish spread that
#: covers sub-millisecond latencies up to minutes and unit-scale losses
DEFAULT_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    ``buckets`` are inclusive upper bounds; one implicit overflow bucket
    catches everything beyond the last bound.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total",
                 "min", "max")
    kind = "histogram"

    def __init__(self, name: str,
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        bounds = tuple(sorted(buckets if buckets is not None
                              else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: overflow
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "buckets": {str(b): c
                        for b, c in zip(self.bounds, self.counts)},
            "overflow": self.counts[-1],
        }


class QuantileSketch:
    """Streaming quantiles over a bounded uniform reservoir (Algorithm R).

    Exact until ``max_samples`` observations, an unbiased uniform
    subsample after. Replacement decisions come from a private 64-bit LCG
    seeded per sketch, so the sketch is deterministic for a given
    observation sequence and never consumes shared rng state.
    """

    __slots__ = ("name", "max_samples", "count", "total", "min", "max",
                 "_samples", "_state")
    kind = "quantiles"

    _LCG_MULT = 6364136223846793005
    _LCG_INC = 1442695040888963407
    _LCG_MOD = 1 << 64

    def __init__(self, name: str, max_samples: int = 512,
                 seed: int = 0x9E3779B9) -> None:
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.name = name
        self.max_samples = int(max_samples)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: List[float] = []
        # crc32, not hash(): string hashing is salted per process and the
        # reservoir must be reproducible across runs
        self._state = (int(seed) ^ zlib.crc32(name.encode())) % self._LCG_MOD

    def _next_index(self, bound: int) -> int:
        self._state = (self._state * self._LCG_MULT
                       + self._LCG_INC) % self._LCG_MOD
        return (self._state >> 16) % bound

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < self.max_samples:
            self._samples.append(value)
            return
        slot = self._next_index(self.count)
        if slot < self.max_samples:
            self._samples[slot] = value

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (nearest-rank over the reservoir)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = min(int(q * len(ordered)), len(ordered) - 1)
        return ordered[rank]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
        }


class EwmaTimer:
    """EWMA over observed durations, plus count/total.

    Name timers ``<something>_seconds``: every value a timer holds is
    wall-clock and must be excluded from determinism comparisons.
    """

    __slots__ = ("name", "alpha", "count", "total", "ewma", "last")
    kind = "timer"

    def __init__(self, name: str, alpha: float = 0.2) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.name = name
        self.alpha = alpha
        self.count = 0
        self.total = 0.0
        self.ewma = 0.0
        self.last = 0.0

    def observe(self, seconds: float) -> None:
        seconds = float(seconds)
        self.count += 1
        self.total += seconds
        self.last = seconds
        self.ewma = (seconds if self.count == 1
                     else self.alpha * seconds + (1 - self.alpha) * self.ewma)

    def snapshot(self) -> dict:
        return {"kind": self.kind, "count": self.count, "sum": self.total,
                "ewma": self.ewma, "last": self.last}


class NullMetric:
    """Accepts every instrument method and does nothing.

    One shared instance serves all disabled-telemetry call sites; every
    accessor of :class:`NullRegistry` returns it.
    """

    __slots__ = ()
    kind = "null"

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: Iterable[float]) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {"kind": self.kind}


_NULL_METRIC = NullMetric()


class NullRegistry:
    """The disabled-mode registry: every lookup is the shared no-op metric."""

    __slots__ = ()
    enabled = False

    def counter(self, name: str) -> NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str) -> NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> NullMetric:
        return _NULL_METRIC

    def quantiles(self, name: str, max_samples: int = 512) -> NullMetric:
        return _NULL_METRIC

    def timer(self, name: str, alpha: float = 0.2) -> NullMetric:
        return _NULL_METRIC

    def snapshot(self, include_samples: bool = False) -> dict:
        return {}

    def reset(self) -> None:
        pass


NULL_REGISTRY = NullRegistry()


class MetricsRegistry:
    """Get-or-create metric store keyed by name.

    A name is bound to the kind that first created it; asking for the same
    name as a different kind raises (silent aliasing would corrupt both).
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, factory, kind: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise ValueError(f"metric {name!r} is a {metric.kind}, "
                             f"not a {kind}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get(name, lambda: Gauge(name), "gauge")

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._get(name, lambda: Histogram(name, buckets), "histogram")

    def quantiles(self, name: str, max_samples: int = 512) -> QuantileSketch:
        return self._get(name, lambda: QuantileSketch(name, max_samples),
                         "quantiles")

    def timer(self, name: str, alpha: float = 0.2) -> EwmaTimer:
        return self._get(name, lambda: EwmaTimer(name, alpha), "timer")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._metrics))

    def snapshot(self, include_samples: bool = False) -> Dict[str, dict]:
        """All metrics as plain JSON-able dicts, sorted by name.

        ``include_samples=True`` attaches each quantile sketch's raw
        reservoir (``"samples"``) so a pool parent can merge sketches
        from many processes exactly (see :mod:`repro.obs.merge`).
        """
        out: Dict[str, dict] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            snap = metric.snapshot()
            if include_samples and metric.kind == "quantiles":
                snap["samples"] = list(metric._samples)
            out[name] = snap
        return out

    def reset(self) -> None:
        self._metrics.clear()
