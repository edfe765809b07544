"""Shared pieces of the end-to-end benchmark: statistics over time
windows, CPU accounting across processes, and the result record.

Every timed workload splits its measured interval into short windows and
reports, for each metric, a percentile over the windows of a per-window
statistic (for example the window's median latency). On the shared
2-vCPU hosts this benchmark was built on, a core's speed drops by up to
~1.6x for seconds at a time while a neighbour is busy. Latency takes the
10th percentile over windows: a window in which a slowdown built a queue
reads several times its usual median, and a low percentile stays on the
undisturbed windows as long as a tenth of them saw it. CPU per operation
does not queue; where a window holds many operations it takes the median
over windows, which spread less between seeded runs than the 10th
percentile did (quartile distance over median, averaged over sets of
8-18 runs: pool 0.11 against 0.14 over 10 sets, single server 0.09
against 0.10 over 6, match-churn 0.14 against 0.16 over 4). fit-lst's
windows are single fits, each slowed as a whole, so both its metrics
take the 10th percentile (0.15 against 0.19 over 4 sets). Set-up time
is the median of several set-ups in the same run.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import platform
import time
from typing import Dict, Iterable, List, Sequence

import numpy as np

#: percentiles across windows that a run reports (see above): latency and
#: per-fit times take the low one, CPU per operation the median
LOW_QUANTILE = 10.0
CPU_QUANTILE = 50.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; NaN for an empty sample."""
    if len(values) == 0:
        return math.nan
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def across_windows(values: Iterable[float], q: float) -> float:
    """The run's value of a per-window statistic (NaN windows skipped)."""
    kept = [v for v in values if not math.isnan(v)]
    return percentile(kept, q)


def _child_cpu_seconds(pid: int) -> float:
    """CPU time of a live child, to the nanosecond (0 once it is gone):
    Linux's process-wide CPU clock of ``pid`` (CPUCLOCK_SCHED)."""
    try:
        return time.clock_gettime((~pid << 3) | 2)
    except OSError:
        return 0.0


def cpu_seconds() -> float:
    """CPU time of this process plus its live multiprocessing children
    (the serving pool's replicas)."""
    total = time.process_time()
    for child in multiprocessing.active_children():
        total += _child_cpu_seconds(child.pid)
    return total


def environment() -> Dict[str, object]:
    """What the numbers depend on besides the code: cores, BLAS, Python."""
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Metric:
    """One reported number: value, unit and the samples behind it."""

    __slots__ = ("value", "unit", "n")

    def __init__(self, value: float, unit: str, n: int) -> None:
        self.value = float(value)
        self.unit = unit
        self.n = int(n)


class Outcome:
    """What one workload run produced: metrics plus the operation and
    correctness-check tallies that become ``attempted``/``failed``."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Metric] = {}
        self.ops = 0
        self.ops_failed = 0
        self.checks = 0
        self.checks_failed = 0
        self.notes: List[str] = []
        self.extra: Dict[str, object] = {}
        #: per-window values behind each windowed metric, for diagnosis
        self.windows: Dict[str, List[float]] = {}

    def put_windows(self, name: str, values: Sequence[float], n: int,
                    q: float) -> None:
        """A windowed metric: percentile ``q`` over per-window values."""
        values = list(values)
        self.windows[name] = [None if math.isnan(v) else round(v, 6)
                              for v in values]
        self.put(name, across_windows(values, q), n)

    def put(self, name: str, value: float, n: int) -> None:
        """Record a metric; its unit comes from BENCHMARK.json. A statistic
        of an empty sample reads 0 (and says n=0)."""
        if n == 0 and math.isnan(value):
            value = 0.0
        self.metrics[name] = Metric(value, "", n)

    def check(self, passed: bool, what: str) -> None:
        self.checks += 1
        if not passed:
            self.checks_failed += 1
            self.notes.append(f"check failed: {what}")

    def result(self, names: Sequence[str]) -> dict:
        """The result object (last output line) over the named metrics."""
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise KeyError(f"workload did not measure {missing}")
        return {
            "correct": self.checks_failed == 0,
            "attempted": self.ops + self.checks,
            "failed": self.ops_failed + self.checks_failed,
            "metrics": {name: {"value": self.metrics[name].value,
                               "unit": self.metrics[name].unit}
                        for name in names},
        }

    def lines(self, workload: str, names: Sequence[str]) -> List[str]:
        """``workload metric value unit n`` rows for people."""
        return [f"{workload} {name} {self.metrics[name].value:.6g} "
                f"{self.metrics[name].unit} {self.metrics[name].n}"
                for name in names]


def load_spec(root) -> dict:
    """BENCHMARK.json at the repository root."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)
