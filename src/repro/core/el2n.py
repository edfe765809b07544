"""MC-EL2N importance scores and dynamic data pruning (paper Section 4.3).

EL2N [Paul et al. 2021] scores a training sample by the L2 norm of the error
vector ``||p(x) - onehot(y)||_2``: samples the model already fits well early
in training contribute little. The paper stabilizes the score by averaging
it over ``n`` MC-Dropout stochastic passes (MC-EL2N), then prunes the
Top-N_D *lowest-scoring* samples every ``frequency`` epochs (Eq. 3),
shrinking the student's training set without hurting accuracy.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..autograd import Module
from ..data.dataset import CandidatePair
from ..infer import InferenceEngine
from ..obs import get_telemetry
from .trainer import stochastic_proba


def el2n_scores(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Plain EL2N: ``||p - onehot(y)||_2`` per sample, from (N, C) probs."""
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or len(probs) != len(labels):
        raise ValueError("probs must be (N, C) aligned with labels")
    onehot = np.zeros_like(probs)
    onehot[np.arange(len(labels)), labels] = 1.0
    return np.linalg.norm(probs - onehot, axis=1)


def mc_el2n_scores(model: Module, pairs: Sequence[CandidatePair],
                   labels: np.ndarray, passes: int = 10,
                   batch_size: int = 32,
                   engine: Optional[InferenceEngine] = None,
                   seed: int = 0) -> np.ndarray:
    """MC-EL2N: mean EL2N over ``passes`` stochastic forward passes.

    With an ``engine``, all passes run in one vectorized MC-Dropout sweep.
    """
    if passes < 1:
        raise ValueError("need at least one stochastic pass")
    if not len(pairs):
        return np.zeros(0)
    labels = np.asarray(labels, dtype=np.int64)
    if engine is not None:
        stacked = engine.mc_dropout_proba(model, pairs, passes=passes,
                                          seed=seed)
        totals = sum(el2n_scores(stacked[k], labels) for k in range(passes))
        return totals / passes
    totals = np.zeros(len(pairs))
    for _ in range(passes):
        probs = stochastic_proba(model, pairs, batch_size=batch_size)
        totals += el2n_scores(probs, labels)
    return totals / passes


def select_prunable(scores: np.ndarray, ratio: float) -> np.ndarray:
    """Eq. 3: indices of the N_D = N_L * e_r lowest-scoring samples."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"prune ratio must be in [0, 1), got {ratio}")
    count = int(round(len(scores) * ratio))
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    return np.argsort(scores, kind="stable")[:count]


def prune_dataset(model: Module, pairs: List[CandidatePair],
                  ratio: float, passes: int = 10,
                  batch_size: int = 32,
                  min_remaining: int = 4,
                  engine: Optional[InferenceEngine] = None,
                  seed: int = 0) -> List[CandidatePair]:
    """Drop the least-important samples; never shrink below ``min_remaining``.

    Also refuses to prune away the last examples of either class -- a
    training set that loses one class entirely would collapse the student.
    """
    if len(pairs) <= min_remaining:
        return pairs
    labels = np.array([p.label for p in pairs], dtype=np.int64)
    scores = mc_el2n_scores(model, pairs, labels, passes=passes,
                            batch_size=batch_size, engine=engine, seed=seed)
    drop = set(select_prunable(scores, ratio).tolist())
    if len(pairs) - len(drop) < min_remaining:
        ordered = sorted(drop, key=lambda i: scores[i])
        drop = set(ordered[: len(pairs) - min_remaining])
    kept = [p for i, p in enumerate(pairs) if i not in drop]
    for cls in (0, 1):
        if any(p.label == cls for p in pairs) and not any(p.label == cls for p in kept):
            # Restore the highest-scoring dropped sample of the lost class.
            candidates = [i for i in drop if pairs[i].label == cls]
            best = max(candidates, key=lambda i: scores[i])
            kept.append(pairs[best])
    tel = get_telemetry()
    if tel.enabled:
        tel.metrics.counter("el2n.pruned").inc(len(pairs) - len(kept))
        tel.metrics.quantiles("el2n.scores").observe_many(scores.tolist())
        tel.event("el2n.prune", before=len(pairs), after=len(kept),
                  dropped=len(pairs) - len(kept), ratio=float(ratio),
                  passes=passes,
                  score_mean=float(scores.mean()),
                  score_min=float(scores.min()),
                  score_max=float(scores.max()))
    return kept
