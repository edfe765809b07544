"""MC-Dropout uncertainty and pseudo-label selection (paper Section 4.2).

A straightforward confidence threshold fails two ways: poorly calibrated
networks assign high confidence to wrong predictions, and the most confident
samples teach the student nothing. Instead we estimate *epistemic*
uncertainty with MC-Dropout [Gal & Ghahramani 2016]: run ``passes``
stochastic forward passes and take the standard deviation of the predicted
class's probability. Pseudo-labels are the Top-N_P *least uncertain*
unlabeled samples (Eq. 2) -- no threshold to tune.

The confidence and clustering selectors reproduced here are the Table 5
comparison strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.cluster.vq import kmeans2

from ..autograd import Module
from ..data.dataset import CandidatePair
from ..infer import InferenceEngine
from ..obs import get_telemetry
from .trainer import predict_proba, stochastic_proba


@dataclass
class McDropoutResult:
    """Statistics of ``passes`` stochastic forward passes."""

    mean_probs: np.ndarray      # (N, 2) mean class probabilities
    labels: np.ndarray          # (N,) argmax of the mean
    uncertainty: np.ndarray     # (N,) std of the predicted class's probability
    all_probs: np.ndarray       # (passes, N, 2)

    def __len__(self) -> int:
        return len(self.labels)


def hard_labels(model: Module, probs: np.ndarray) -> np.ndarray:
    """Class decisions from probabilities, honouring the model's calibrated
    ``decision_threshold`` when present (set by the Trainer)."""
    threshold = getattr(model, "decision_threshold", None)
    if threshold is None:
        return probs.argmax(axis=1)
    return (probs[:, 1] > threshold).astype(np.int64)


def mc_dropout(model: Module, pairs: Sequence[CandidatePair],
               passes: int = 10, batch_size: int = 32,
               engine: Optional[InferenceEngine] = None,
               seed: int = 0) -> McDropoutResult:
    """Run MC-Dropout over ``pairs`` (paper default: 10 passes).

    With an ``engine``, all passes run as one tiled, length-bucketed forward
    per batch (vectorized MC-Dropout) with per-pass seeded dropout --
    bit-identical to the engine's sequential reference path. Without one,
    the legacy per-pass loop is used.
    """
    if passes < 2:
        raise ValueError("MC-Dropout needs at least 2 stochastic passes")
    if not pairs:
        empty = np.zeros((0, 2))
        return McDropoutResult(empty, np.zeros(0, dtype=np.int64),
                               np.zeros(0), np.zeros((passes, 0, 2)))
    if engine is not None:
        stacked = engine.mc_dropout_proba(model, pairs, passes=passes,
                                          seed=seed)
    else:
        stacked = np.stack([
            stochastic_proba(model, pairs, batch_size=batch_size)
            for _ in range(passes)
        ])
    mean = stacked.mean(axis=0)
    labels = hard_labels(model, mean)
    rows = np.arange(len(labels))
    uncertainty = stacked[:, rows, labels].std(axis=0)
    tel = get_telemetry()
    if tel.enabled and len(labels):
        tel.metrics.counter("mc_dropout.sweeps").inc()
        tel.metrics.quantiles("mc_dropout.uncertainty").observe_many(
            uncertainty.tolist())
        tel.event("mc_dropout.stats", pairs=len(labels), passes=passes,
                  uncertainty_mean=float(uncertainty.mean()),
                  uncertainty_min=float(uncertainty.min()),
                  uncertainty_max=float(uncertainty.max()),
                  uncertainty_p50=float(np.quantile(uncertainty, 0.5)),
                  uncertainty_p90=float(np.quantile(uncertainty, 0.9)),
                  positive_fraction=float((labels == 1).mean()))
    return McDropoutResult(mean_probs=mean, labels=labels,
                           uncertainty=uncertainty, all_probs=stacked)


def top_n_count(total: int, ratio: float) -> int:
    """N_P = N_U * u_r (Eq. 2), clamped to the pool size."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    return min(total, max(1, int(round(total * ratio)))) if total else 0


def select_by_uncertainty(result: McDropoutResult, count: int) -> np.ndarray:
    """Indices of the ``count`` *least uncertain* samples (Eq. 2)."""
    count = min(count, len(result))
    return np.argsort(result.uncertainty, kind="stable")[:count]


def select_by_confidence(probs: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` most confident samples (the naive strategy)."""
    confidence = probs.max(axis=1)
    count = min(count, len(confidence))
    return np.argsort(-confidence, kind="stable")[:count]


def select_by_clustering(features: np.ndarray, count: int,
                         num_clusters: int = 2, seed: int = 0) -> np.ndarray:
    """Cluster the feature space and pick samples nearest their centroid.

    Following few-shot pseudo-labeling practice [Dopierre et al. 2020]:
    samples close to a cluster center are treated as prototypical and
    receive pseudo-labels first.
    """
    n = len(features)
    count = min(count, n)
    if n == 0 or count == 0:
        return np.zeros(0, dtype=np.int64)
    k = min(num_clusters, n)
    centroids, assignment = kmeans2(features.astype(np.float64), k,
                                    minit="points", seed=seed)
    distances = np.linalg.norm(features - centroids[assignment], axis=1)
    return np.argsort(distances, kind="stable")[:count]


@dataclass
class PseudoLabelSelection:
    """Outcome of one pseudo-labeling round."""

    indices: np.ndarray          # positions in the unlabeled pool
    pseudo_labels: np.ndarray    # teacher-assigned labels for those positions


def select_pseudo_labels(model: Module, unlabeled: Sequence[CandidatePair],
                         ratio: float = 0.1, passes: int = 10,
                         strategy: str = "uncertainty",
                         batch_size: int = 32,
                         features: Optional[np.ndarray] = None,
                         seed: int = 0,
                         engine: Optional[InferenceEngine] = None,
                         ) -> PseudoLabelSelection:
    """Pick Top-N_P pseudo-labels from the unlabeled pool.

    ``strategy`` is one of ``uncertainty`` (the paper's), ``confidence``,
    or ``clustering`` (Table 5 alternatives). Clustering needs ``features``
    (e.g. pooled encoder states); it falls back to mean probabilities.
    ``engine`` routes the stochastic/eval forwards through the batched
    inference engine (cached encodings + vectorized MC-Dropout).
    """
    count = top_n_count(len(unlabeled), ratio)
    if count == 0:
        return PseudoLabelSelection(np.zeros(0, dtype=np.int64),
                                    np.zeros(0, dtype=np.int64))
    if strategy == "uncertainty":
        result = mc_dropout(model, unlabeled, passes=passes,
                            batch_size=batch_size, engine=engine, seed=seed)
        indices = select_by_uncertainty(result, count)
        labels = result.labels[indices]
    elif strategy == "confidence":
        probs = predict_proba(model, unlabeled, batch_size=batch_size,
                              engine=engine)
        indices = select_by_confidence(probs, count)
        labels = hard_labels(model, probs)[indices]
    elif strategy == "clustering":
        probs = predict_proba(model, unlabeled, batch_size=batch_size,
                              engine=engine)
        space = features if features is not None else probs
        indices = select_by_clustering(space, count, seed=seed)
        labels = hard_labels(model, probs)[indices]
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return PseudoLabelSelection(indices=indices, pseudo_labels=labels)
