"""Evaluation substrate: metrics, reporting, protocol."""

from .calibration import (
    CalibrationBin, CalibrationReport, calibration_report, overconfidence_rate,
)
from .metrics import (
    PRF, ConfusionMatrix, precision_recall_f1, pseudo_label_quality,
)
from .protocol import BenchScale, ExperimentRunner, RunResult, bench_scale
from .significance import (
    BootstrapInterval, bootstrap_f1, paired_bootstrap_delta,
)
from .reporting import render_prf_table, render_series, render_table

__all__ = [
    "ConfusionMatrix", "PRF", "precision_recall_f1", "pseudo_label_quality",
    "CalibrationBin", "CalibrationReport", "calibration_report",
    "overconfidence_rate",
    "render_table", "render_prf_table", "render_series",
    "BootstrapInterval", "bootstrap_f1", "paired_bootstrap_delta",
    "ExperimentRunner", "RunResult", "BenchScale", "bench_scale",
]
