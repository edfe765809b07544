"""Lightweight self-training (paper Algorithm 1).

Per iteration:

1. train a fresh *teacher* on the labeled set D_L;
2. select high-quality pseudo-labels D_P from the unlabeled pool D_U via
   uncertainty-aware selection (Section 4.2) and move them into D_L;
3. train a fresh *student* on the augmented D_L, pruning useless samples
   with MC-EL2N every ``prune_frequency`` epochs (Section 4.3);
4. keep the student with the best validation F1.

The procedure is generic over the model: any factory producing a module
with ``loss``/``forward`` works, which is what lets the benchmarks attach
LST to fine-tuning baselines too ("LST is general enough to incorporate
with other approaches").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..autograd import Module
from ..data.dataset import CandidatePair
from ..infer import EngineConfig, InferenceEngine
from ..obs import get_telemetry
from .el2n import prune_dataset
from .trainer import Trainer, TrainerConfig, evaluate_f1
from .uncertainty import select_pseudo_labels


@dataclass
class SelfTrainingConfig:
    """Knobs of Algorithm 1 (defaults follow paper Section 5.1)."""

    iterations: int = 1
    teacher_epochs: int = 12
    student_epochs: int = 16
    pseudo_label_ratio: float = 0.10       # u_r
    selection_strategy: str = "uncertainty"
    mc_passes: int = 10
    use_dynamic_pruning: bool = True
    prune_ratio: float = 0.2               # e_r
    prune_frequency: int = 8
    batch_size: int = 16
    lr: float = 5e-4
    weight_decay: float = 0.01
    grad_clip: float = 1.0
    seed: int = 0
    #: inference-engine knobs for pseudo-labeling / pruning / evaluation
    use_engine: bool = True
    token_budget: int = 2048
    engine_cache: int = 8192


@dataclass
class SelfTrainingReport:
    """What happened during one LST run."""

    teacher_valid_f1: List[float] = field(default_factory=list)
    student_valid_f1: List[float] = field(default_factory=list)
    pseudo_labels_added: List[int] = field(default_factory=list)
    samples_pruned: List[int] = field(default_factory=list)
    final_train_size: int = 0
    # inference-engine counters (filled when the engine is enabled)
    engine_pairs_per_sec: float = 0.0
    engine_cache_hit_rate: float = 0.0
    engine_batches: int = 0
    engine_padding_fraction: float = 0.0


class LightweightSelfTrainer:
    """Orchestrates Algorithm 1 over a model factory."""

    def __init__(self, model_factory: Callable[[], Module],
                 config: Optional[SelfTrainingConfig] = None) -> None:
        self.model_factory = model_factory
        self.config = config if config is not None else SelfTrainingConfig()

    def _trainer_config(self, epochs: int, seed_offset: int) -> TrainerConfig:
        cfg = self.config
        return TrainerConfig(epochs=epochs, batch_size=cfg.batch_size,
                             lr=cfg.lr, weight_decay=cfg.weight_decay,
                             grad_clip=cfg.grad_clip,
                             seed=cfg.seed + seed_offset)

    def _make_engine(self) -> Optional[InferenceEngine]:
        cfg = self.config
        if not cfg.use_engine:
            return None
        return InferenceEngine(EngineConfig(
            token_budget=cfg.token_budget,
            max_batch_pairs=max(cfg.batch_size, 32),
            cache_capacity=cfg.engine_cache,
            base_seed=cfg.seed))

    def run(self, labeled: Sequence[CandidatePair],
            unlabeled: Sequence[CandidatePair],
            valid: Sequence[CandidatePair]) -> tuple:
        """Execute Algorithm 1. Returns (best_student_model, report)."""
        cfg = self.config
        d_l: List[CandidatePair] = list(labeled)
        d_u: List[CandidatePair] = list(unlabeled)
        report = SelfTrainingReport()
        # One engine for the whole run: the teacher's MC-Dropout sweep warms
        # the encoding cache that the student's pruning and every subsequent
        # iteration then hit.
        engine = self._make_engine()

        best_model: Optional[Module] = None
        best_f1 = -1.0

        tel = get_telemetry()
        for iteration in range(cfg.iterations):
            # --- teacher (Algorithm 1, lines 2-4) -----------------------
            teacher = self.model_factory()
            with tel.span("selftrain.teacher", iteration=iteration):
                Trainer(teacher, self._trainer_config(
                    cfg.teacher_epochs, seed_offset=iteration)).fit(
                    d_l, valid=valid)
            teacher_f1 = evaluate_f1(teacher, valid, batch_size=cfg.batch_size,
                                     engine=engine)
            report.teacher_valid_f1.append(teacher_f1)
            if teacher_f1 > best_f1:
                best_f1, best_model = teacher_f1, teacher

            # --- pseudo-label selection (lines 5-8) ---------------------
            pseudo_positive = pseudo_negative = 0
            if d_u:
                with tel.span("selftrain.pseudo_label", iteration=iteration):
                    selection = select_pseudo_labels(
                        teacher, d_u, ratio=cfg.pseudo_label_ratio,
                        passes=cfg.mc_passes, strategy=cfg.selection_strategy,
                        batch_size=cfg.batch_size, seed=cfg.seed + iteration,
                        engine=engine)
                chosen = set(selection.indices.tolist())
                for idx, label in zip(selection.indices, selection.pseudo_labels):
                    d_l.append(d_u[idx].with_label(int(label)))
                    if int(label) == 1:
                        pseudo_positive += 1
                    else:
                        pseudo_negative += 1
                d_u = [p for i, p in enumerate(d_u) if i not in chosen]
                report.pseudo_labels_added.append(len(chosen))
            else:
                report.pseudo_labels_added.append(0)

            # --- student with dynamic pruning (lines 9-15) --------------
            student = self.model_factory()
            pruned_counter = [0]
            current = {"train": d_l}

            def prune_callback(epoch: int, trainer: Trainer):
                if not cfg.use_dynamic_pruning:
                    return None
                if (epoch + 1) % cfg.prune_frequency != 0:
                    return None
                before = len(current["train"])
                kept = prune_dataset(trainer.model, current["train"],
                                     ratio=cfg.prune_ratio,
                                     passes=cfg.mc_passes,
                                     batch_size=cfg.batch_size,
                                     engine=engine,
                                     seed=cfg.seed + 17 * (epoch + 1))
                pruned_counter[0] += before - len(kept)
                current["train"] = kept
                return kept

            with tel.span("selftrain.student", iteration=iteration):
                Trainer(student, self._trainer_config(
                    cfg.student_epochs, seed_offset=100 + iteration)).fit(
                    d_l, valid=valid, epoch_callback=prune_callback)
            student_f1 = evaluate_f1(student, valid, batch_size=cfg.batch_size,
                                     engine=engine)
            report.student_valid_f1.append(student_f1)
            report.samples_pruned.append(pruned_counter[0])
            d_l = current["train"]

            # --- keep the best model on validation (line 16) ------------
            if student_f1 >= best_f1:
                best_f1, best_model = student_f1, student

            if tel.enabled:
                tel.metrics.counter("selftrain.rounds").inc()
                tel.metrics.counter("selftrain.pseudo_labels").inc(
                    report.pseudo_labels_added[-1])
                tel.event("selftrain.round", iteration=iteration,
                          teacher_f1=float(teacher_f1),
                          student_f1=float(student_f1),
                          pseudo_added=report.pseudo_labels_added[-1],
                          pseudo_positive=pseudo_positive,
                          pseudo_negative=pseudo_negative,
                          pruned=pruned_counter[0],
                          train_size=len(d_l),
                          unlabeled_remaining=len(d_u))

        if best_model is None:
            raise RuntimeError("self-training ran zero iterations; "
                               "train a plain model instead")
        report.final_train_size = len(d_l)
        if engine is not None:
            stats = engine.stats
            report.engine_pairs_per_sec = stats.pairs_per_sec
            report.engine_cache_hit_rate = stats.cache_hit_rate
            report.engine_batches = stats.batches
            report.engine_padding_fraction = stats.padding_fraction
            if tel.enabled and stats.pairs:
                tel.event("engine.stats", scope="self_training",
                          **engine.stats_dict())
        return best_model, report
