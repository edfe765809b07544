"""Experiment protocol: run matchers over datasets and collect paper rows.

Each benchmark builds on :class:`ExperimentRunner`, which owns the loop
"make a low-resource view -> fit the matcher -> report test P/R/F1 (+
resources)". The scale of a run (epochs, unlabeled cap, datasets) is set by
:func:`bench_scale`, controlled via the ``REPRO_BENCH_SCALE`` environment
variable: ``smoke`` for CI-speed runs, ``paper`` for the full evaluation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # avoid a circular import; Matcher is annotation-only here
    from ..baselines.base import Matcher

from ..data.dataset import LowResourceView
from ..data.generators.registry import DATASET_NAMES, load_dataset
from ..obs.resources import ResourceMeter, ResourceReport
from .metrics import PRF


@dataclass(frozen=True)
class BenchScale:
    """Knobs that trade fidelity for wall-clock time."""

    name: str
    datasets: Sequence[str]
    lm_epochs: int              # epochs for single-stage LM baselines
    teacher_epochs: int
    student_epochs: int
    mc_passes: int
    unlabeled_cap: int
    #: reduced epochs for the sufficient-resource table (the full train
    #: split has ~20x more steps per epoch than the low-resource one)
    sufficient_epochs: int = 4
    seeds: Sequence[int] = (0,)


_SCALES = {
    "smoke": BenchScale(
        name="smoke",
        datasets=("REL-HETER", "SEMI-HETER"),
        lm_epochs=6, teacher_epochs=5, student_epochs=6,
        mc_passes=4, unlabeled_cap=40, sufficient_epochs=2),
    "paper": BenchScale(
        name="paper",
        datasets=tuple(DATASET_NAMES),
        lm_epochs=8, teacher_epochs=8, student_epochs=10,
        mc_passes=6, unlabeled_cap=60, sufficient_epochs=3),
}


def bench_scale(default: str = "paper") -> BenchScale:
    """The active scale, from ``REPRO_BENCH_SCALE`` (smoke | paper)."""
    name = os.environ.get("REPRO_BENCH_SCALE", default)
    if name not in _SCALES:
        raise KeyError(f"unknown bench scale {name!r}; choose from {sorted(_SCALES)}")
    return _SCALES[name]


@dataclass
class RunResult:
    """One (matcher, dataset) cell: quality plus resource usage."""

    method: str
    dataset: str
    prf: PRF
    resources: Optional[ResourceReport] = None


class ExperimentRunner:
    """Runs matcher factories over datasets under a common protocol."""

    def __init__(self, scale: Optional[BenchScale] = None) -> None:
        self.scale = scale if scale is not None else bench_scale()
        self.results: List[RunResult] = []

    def view_for(self, dataset_name: str, rate: Optional[float] = None,
                 count: Optional[int] = None, seed: int = 0) -> LowResourceView:
        dataset = load_dataset(dataset_name)
        if count is not None:
            return dataset.low_resource_count(count, seed=seed)
        return dataset.low_resource(rate=rate, seed=seed)

    def run(self, method_name: str,
            matcher_factory: Callable[[], "Matcher"],
            dataset_name: str,
            rate: Optional[float] = None,
            count: Optional[int] = None,
            seed: int = 0,
            measure_resources: bool = False) -> RunResult:
        """Fit one matcher on one dataset's low-resource view."""
        view = self.view_for(dataset_name, rate=rate, count=count, seed=seed)
        matcher = matcher_factory()
        if measure_resources:
            with ResourceMeter() as meter:
                matcher.fit(view)
                estimate = getattr(matcher, "memory_bytes", None)
                if estimate is not None:
                    meter.add_bytes(estimate())
            report = meter.report
        else:
            matcher.fit(view)
            report = None
        prf = matcher.evaluate(view.test)
        result = RunResult(method=method_name, dataset=dataset_name,
                           prf=prf, resources=report)
        self.results.append(result)
        return result

    def as_prf_grid(self) -> Dict[str, Dict[str, tuple]]:
        """results -> {method: {dataset: (P, R, F)}} for reporting."""
        grid: Dict[str, Dict[str, tuple]] = {}
        for result in self.results:
            grid.setdefault(result.method, {})[result.dataset] = result.prf.as_row()
        return grid
