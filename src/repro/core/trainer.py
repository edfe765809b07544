"""Generic supervised trainer shared by PromptEM and the LM baselines.

Implements the paper's training protocol (Section 5.1): AdamW, mini-batches,
a fixed epoch budget, and *best-epoch selection on validation F1* ("we
select the epoch with the highest F1-score on the validation set").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..autograd import AdamW, Module
from ..data.dataset import CandidatePair
from ..eval.metrics import ConfusionMatrix
from ..infer import EngineConfig, InferenceEngine
from ..infer.engine import pack_buckets
from ..obs import get_telemetry


@dataclass
class TrainerConfig:
    """Optimization hyperparameters."""

    epochs: int = 10
    batch_size: int = 16
    lr: float = 5e-4
    weight_decay: float = 0.01
    grad_clip: float = 1.0
    seed: int = 0
    select_best_on_valid: bool = True
    #: reweight classes to equal mass -- tiny low-resource samples are
    #: heavily negative-skewed and otherwise collapse to the majority class
    balance_classes: bool = True
    #: after training, tune the decision threshold on the validation set
    #: (stored as ``model.decision_threshold`` and honoured by predict())
    calibrate_threshold: bool = True
    #: pack mini-batches of similar-length pairs under ``rows x longest <=
    #: token_budget`` (capped at ``batch_size`` rows), so short pairs stop
    #: paying padded-position FLOPs up to the batch maximum. Only active for
    #: models speaking the engine encoding protocol (``encode_pair``);
    #: ``None`` keeps fixed ``batch_size`` slices.
    token_budget: Optional[int] = 2048
    #: visit pairs in exactly the seed loop's shuffled order (fixed
    #: ``batch_size`` slices of ``rng.permutation``) -- the parity mode the
    #: training benchmark and regression tests use to compare trajectories.
    preserve_rng_order: bool = False


@dataclass
class TrainHistory:
    """Per-epoch loss and validation F1."""

    losses: List[float] = field(default_factory=list)
    valid_f1: List[float] = field(default_factory=list)
    best_epoch: int = -1
    steps: int = 0


def _transient_engine(batch_size: int) -> InferenceEngine:
    """A per-call engine: bucketed batching without cross-call caching."""
    return InferenceEngine(EngineConfig(max_batch_pairs=batch_size))


def predict_proba(model: Module, pairs: Sequence[CandidatePair],
                  batch_size: int = 32,
                  engine: Optional[InferenceEngine] = None) -> np.ndarray:
    """(N, 2) class probabilities in eval mode, without building a graph.

    Routed through :class:`repro.infer.InferenceEngine`; pass a persistent
    ``engine`` to reuse its encoding cache across calls (self-training does).
    """
    if engine is None:
        engine = _transient_engine(batch_size)
    return engine.predict_proba(model, pairs)


def predict(model: Module, pairs: Sequence[CandidatePair],
            batch_size: int = 32,
            engine: Optional[InferenceEngine] = None) -> np.ndarray:
    """Hard 0/1 predictions.

    Honours a calibrated ``model.decision_threshold`` when present
    (set by :class:`Trainer` from validation F1); argmax otherwise.
    """
    probs = predict_proba(model, pairs, batch_size=batch_size, engine=engine)
    threshold = getattr(model, "decision_threshold", None)
    if threshold is None:
        return probs.argmax(axis=1)
    return (probs[:, 1] > threshold).astype(np.int64)


def tune_threshold(probs: np.ndarray, labels: np.ndarray) -> float:
    """The positive-probability cutoff maximizing F1 on (probs, labels).

    Vectorized: instead of building a :class:`ConfusionMatrix` per candidate
    cut (O(n) cuts x O(n) counting), TP/FP at every cut fall out of one sort
    and a cumulative positive count -- ``searchsorted`` gives, per cut, how
    many scores it clears.

    Tie-breaking is deterministic and permutation-invariant: among all cuts
    whose F1 is within ``1e-12`` of the maximum, the default ``0.5`` wins if
    it is one of them, otherwise the smallest cut. Without the tolerance,
    exact ties can be broken by which F1 accumulated less rounding error --
    an accident of the score distribution, not a property of the cut.
    """
    labels = np.asarray(labels, dtype=np.int64)
    scores = probs[:, 1]
    candidates = np.unique(scores)
    # midpoints between consecutive scores + 0.5 as a fallback
    cuts = np.concatenate([[0.5], (candidates[:-1] + candidates[1:]) / 2.0]) \
        if len(candidates) > 1 else np.array([0.5])

    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    cum_pos = np.cumsum(labels[order] == 1)
    total_pos = int(cum_pos[-1]) if len(cum_pos) else 0

    below = np.searchsorted(sorted_scores, cuts, side="right")
    tp = total_pos - np.where(below > 0, cum_pos[np.maximum(below, 1) - 1], 0)
    fp = (len(scores) - below) - tp
    fn = total_pos - tp
    # same guard semantics as ConfusionMatrix.f1 (0.0 on empty denominators)
    precision = np.divide(tp, tp + fp, out=np.zeros(len(cuts)),
                          where=(tp + fp) > 0)
    recall = np.divide(tp, tp + fn, out=np.zeros(len(cuts)),
                       where=(tp + fn) > 0)
    denom = precision + recall
    f1 = np.divide(2 * precision * recall, denom, out=np.zeros(len(cuts)),
                   where=denom > 0)
    tied = cuts[f1 >= np.max(f1) - 1e-12]
    if np.any(tied == 0.5):
        return 0.5
    return float(tied.min())


def stochastic_proba(model: Module, pairs: Sequence[CandidatePair],
                     batch_size: int = 32,
                     engine: Optional[InferenceEngine] = None,
                     pass_seed: Optional[int] = None) -> np.ndarray:
    """One stochastic forward pass (dropout active) -- MC-Dropout's core.

    ``pass_seed`` makes the pass replayable (deterministic dropout masks);
    left ``None``, each Dropout module draws from its own rng as before.
    """
    if engine is None:
        engine = _transient_engine(batch_size)
    return engine.stochastic_proba(model, pairs, pass_seed=pass_seed)


def evaluate_f1(model: Module, pairs: Sequence[CandidatePair],
                batch_size: int = 32,
                engine: Optional[InferenceEngine] = None) -> float:
    if not pairs:
        return 0.0
    preds = predict(model, pairs, batch_size=batch_size, engine=engine)
    truth = np.array([p.label for p in pairs])
    return ConfusionMatrix.from_labels(truth, preds).f1


class Trainer:
    """Epoch loop with shuffling, clipping and best-on-valid checkpointing."""

    def __init__(self, model: Module, config: Optional[TrainerConfig] = None) -> None:
        self.model = model
        self.config = config if config is not None else TrainerConfig()
        self.optimizer = AdamW(model.parameters(), lr=self.config.lr,
                               weight_decay=self.config.weight_decay)

    def fit(self, train: Sequence[CandidatePair],
            valid: Optional[Sequence[CandidatePair]] = None,
            sample_weights: Optional[np.ndarray] = None,
            epoch_callback: Optional[Callable[[int, "Trainer"], Sequence[CandidatePair]]] = None,
            ) -> TrainHistory:
        """Train on labeled pairs; returns the history.

        ``epoch_callback(epoch, trainer)`` runs after each epoch and may
        return a *replacement training set* -- the hook dynamic data pruning
        uses to shrink ``train`` mid-run (Algorithm 1, lines 12-15).
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        train = list(train)
        if not train:
            raise ValueError("empty training set")
        weights = (np.asarray(sample_weights, dtype=np.float64)
                   if sample_weights is not None else None)
        if weights is not None and len(weights) != len(train):
            raise ValueError("sample_weights length mismatch")
        if cfg.balance_classes:
            balance = _class_balance_weights(train)
            weights = balance if weights is None else weights * balance

        # One engine for the whole fit: per-epoch validation, threshold
        # calibration and the training fastpath all share its encoding cache.
        engine = _transient_engine(cfg.batch_size)
        encodings, lengths = self._train_encodings(engine, train)

        history = TrainHistory()
        best_f1 = -1.0
        best_state = None
        best_threshold = None

        tel = get_telemetry()
        if tel.enabled:
            tel.event("trainer.fit.start", n_train=len(train),
                      n_valid=len(valid) if valid else 0,
                      epochs=cfg.epochs, batch_size=cfg.batch_size,
                      lr=cfg.lr)

        with tel.span("trainer.fit", epochs=cfg.epochs):
            for epoch in range(cfg.epochs):
                order = rng.permutation(len(train))
                self.model.train()
                epoch_losses = []
                epoch_tokens = 0
                epoch_started = time.perf_counter()
                with tel.span("trainer.epoch", epoch=epoch):
                    for idx in self._epoch_batches(order, lengths, rng):
                        labels = np.array([train[i].label for i in idx],
                                          dtype=np.int64)
                        batch_weights = weights[idx] \
                            if weights is not None else None
                        if encodings is not None:
                            loss = self.model.loss_encoded(
                                [encodings[i] for i in idx], labels,
                                sample_weights=batch_weights)
                        else:
                            loss = self.model.loss(
                                [train[i] for i in idx], labels,
                                sample_weights=batch_weights)
                        self.optimizer.zero_grad()
                        loss.backward()
                        grad_norm = self.optimizer.step(
                            grad_clip=cfg.grad_clip)
                        loss_value = loss.item()
                        epoch_losses.append(loss_value)
                        if tel.enabled:
                            epoch_tokens += int(sum(
                                lengths[i] for i in idx)) \
                                if lengths is not None else 0
                            tel.metrics.counter("trainer.steps").inc()
                            tel.metrics.histogram(
                                "trainer.loss").observe(loss_value)
                            tel.event(
                                "trainer.step", step=history.steps,
                                epoch=epoch, loss=float(loss_value),
                                grad_norm=None if grad_norm is None
                                else float(grad_norm),
                                lr=self.optimizer.lr)
                        history.steps += 1
                epoch_elapsed = time.perf_counter() - epoch_started
                history.losses.append(float(np.mean(epoch_losses)))

                f1 = None
                threshold = None
                if valid:
                    with tel.span("trainer.validate", epoch=epoch):
                        probs = predict_proba(self.model, valid,
                                              batch_size=cfg.batch_size,
                                              engine=engine)
                        truth = np.array([p.label for p in valid],
                                         dtype=np.int64)
                        threshold = (tune_threshold(probs, truth)
                                     if cfg.calibrate_threshold else None)
                        if threshold is None:
                            preds = probs.argmax(axis=1)
                        else:
                            preds = (probs[:, 1] > threshold).astype(
                                np.int64)
                        f1 = ConfusionMatrix.from_labels(truth, preds).f1
                    history.valid_f1.append(f1)
                    if cfg.select_best_on_valid and f1 > best_f1:
                        best_f1 = f1
                        best_state = self.model.state_dict()
                        best_threshold = threshold
                        history.best_epoch = epoch

                if tel.enabled:
                    tel.metrics.gauge("trainer.epoch").set(epoch)
                    tel.event(
                        "trainer.epoch", epoch=epoch,
                        loss=history.losses[-1], steps=history.steps,
                        valid_f1=f1, threshold=threshold,
                        tokens=epoch_tokens,
                        tokens_per_sec=epoch_tokens / epoch_elapsed
                        if epoch_elapsed > 0 else 0.0,
                        examples_per_sec=len(train) / epoch_elapsed
                        if epoch_elapsed > 0 else 0.0)

                if epoch_callback is not None:
                    replacement = epoch_callback(epoch, self)
                    if replacement is not None:
                        train = list(replacement)
                        if not train:
                            break
                        if weights is not None and \
                                len(weights) != len(train):
                            weights = (_class_balance_weights(train)
                                       if cfg.balance_classes else None)
                        encodings, lengths = self._train_encodings(
                            engine, train)

        if best_state is not None:
            self.model.load_state_dict(best_state)
        if cfg.calibrate_threshold:
            self.model.decision_threshold = best_threshold \
                if best_threshold is not None else 0.5
        self.model.eval()
        return history

    # ------------------------------------------------------------------
    def _train_encodings(self, engine: InferenceEngine,
                         train: Sequence[CandidatePair]):
        """Cache training-pair encodings once per fit (and per replacement).

        Returns ``(encodings, lengths)`` when the model speaks the engine
        encoding protocol and exposes ``loss_encoded``; ``(None, None)``
        sends :meth:`fit` down the legacy ``model.loss(batch)`` path.
        """
        if not (hasattr(self.model, "encode_pair")
                and hasattr(self.model, "loss_encoded")):
            return None, None
        supported = getattr(self.model, "supports_encoded_training", None)
        if supported is not None and not supported():
            return None, None
        encodings = engine.encodings(self.model, train)
        return encodings, [len(enc.ids) for enc in encodings]

    def _epoch_batches(self, order: np.ndarray,
                       lengths: Optional[List[int]],
                       rng: np.random.Generator):
        """Yield train-index arrays for one epoch's mini-batches.

        Parity mode (``preserve_rng_order``, no ``token_budget``, or a
        model without cached encodings): fixed ``batch_size`` slices of the
        shuffled ``order`` -- exactly the seed loop. Fastpath: token-budget
        buckets of similar-length pairs, visited in random order.
        """
        cfg = self.config
        if (lengths is None or cfg.token_budget is None
                or cfg.preserve_rng_order):
            for start in range(0, len(order), cfg.batch_size):
                yield order[start:start + cfg.batch_size]
            return
        shuffled_lengths = [lengths[i] for i in order]
        buckets = pack_buckets(shuffled_lengths, cfg.token_budget,
                               cfg.batch_size)
        for b in rng.permutation(len(buckets)):
            yield order[buckets[b]]


def _class_balance_weights(train: Sequence[CandidatePair]) -> np.ndarray:
    """Inverse-frequency class weights normalized to mean 1."""
    labels = np.array([p.label for p in train], dtype=np.int64)
    counts = np.bincount(labels, minlength=2).astype(np.float64)
    counts[counts == 0] = 1.0
    per_class = len(labels) / (2.0 * counts)
    return per_class[labels]
