"""Resource accounting and human-readable time/memory formatting.

Home of the single timing/memory formatting utility the whole repo uses
(benches, the efficiency study, the telemetry report renderer).

The paper's efficiency study (Table 4) reports wall-clock training time
and peak GPU/CPU memory on an A100 testbed. We measure real wall-clock
time, plus a deterministic *model memory* figure reported by each matcher
(parameters + AdamW moments + TDmatch's dense co-occurrence matrix, etc.),
so the memory column has the same comparative shape without host-specific
measurement. tracemalloc-based peak tracking is available but off by
default -- tracing every numpy allocation slows training several-fold,
which would poison the time column.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from typing import Optional


@dataclass
class ResourceReport:
    """Measured footprint of one training run."""

    wall_seconds: float
    model_bytes: int = 0
    peak_python_bytes: int = 0

    @property
    def formatted_time(self) -> str:
        return format_seconds(self.wall_seconds)

    @property
    def formatted_memory(self) -> str:
        return format_bytes(max(self.model_bytes, self.peak_python_bytes))


class ResourceMeter:
    """Context manager measuring wall time (+ optional allocation peaks).

    ``add_model_bytes`` / ``add_bytes`` register deterministic
    model-proportional memory (parameters, optimizer moments, big work
    matrices) that stands in for accelerator memory.
    """

    def __init__(self, trace_allocations: bool = False) -> None:
        self.trace_allocations = trace_allocations
        self._start: Optional[float] = None
        self._was_tracing = False
        self.report: Optional[ResourceReport] = None
        self._extra_bytes = 0

    def add_model_bytes(self, num_parameters: int,
                        optimizer_copies: int = 3,
                        activation_bytes: int = 0,
                        bytes_per_value: int = 4) -> None:
        """Register parameter-derived memory (float32 = 4 bytes each)."""
        self._extra_bytes += (num_parameters * bytes_per_value * optimizer_copies
                              + activation_bytes)

    def add_bytes(self, n: int) -> None:
        self._extra_bytes += int(n)

    def __enter__(self) -> "ResourceMeter":
        if self.trace_allocations:
            self._was_tracing = tracemalloc.is_tracing()
            if not self._was_tracing:
                tracemalloc.start()
            tracemalloc.reset_peak()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._start
        peak = 0
        if self.trace_allocations:
            _, peak = tracemalloc.get_traced_memory()
            if not self._was_tracing:
                tracemalloc.stop()
        self.report = ResourceReport(
            wall_seconds=elapsed,
            model_bytes=self._extra_bytes,
            peak_python_bytes=peak,
        )


def format_seconds(seconds: float) -> str:
    """Render seconds the way Table 4 does: '26.6s', '7.4m', '51.0h'."""
    if seconds < 0:
        raise ValueError("negative duration")
    if seconds < 90:
        return f"{seconds:.1f}s"
    minutes = seconds / 60
    if minutes < 90:
        return f"{minutes:.1f}m"
    return f"{minutes / 60:.1f}h"


def format_bytes(n: int) -> str:
    """Render bytes as '6.2G' / '105.3M' style strings."""
    if n < 0:
        raise ValueError("negative size")
    for unit, scale in (("G", 1024 ** 3), ("M", 1024 ** 2), ("K", 1024)):
        if n >= scale:
            return f"{n / scale:.1f}{unit}"
    return f"{n}B"
