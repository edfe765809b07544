"""PromptEM: the public facade tying prompts, verbalizer and LST together.

Typical use::

    from repro import PromptEM, load_dataset

    dataset = load_dataset("REL-HETER")
    view = dataset.low_resource()            # 10% labels + unlabeled pool
    matcher = PromptEM()
    matcher.fit(view)
    prf = matcher.evaluate(view.test)
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..autograd import Module
from ..data.dataset import CandidatePair, LowResourceView
from ..data.serialize import serialize
from ..eval.metrics import PRF
from ..infer import EngineConfig, InferenceEngine
from ..lm import load_pretrained
from ..lm.model import MiniLM
from ..text import Tokenizer
from ..text.tfidf import TfIdfSummarizer
from .config import PromptEMConfig
from .finetune import SequenceClassifier
from .prompt_model import PromptModel
from .self_training import LightweightSelfTrainer, SelfTrainingConfig, SelfTrainingReport
from .templates import make_template
from .trainer import Trainer, TrainerConfig, predict, predict_proba
from .verbalizer import Verbalizer


class PromptEM:
    """Low-resource generalized entity matcher (the paper's full system)."""

    def __init__(self, config: Optional[PromptEMConfig] = None,
                 lm: Optional[MiniLM] = None,
                 tokenizer: Optional[Tokenizer] = None) -> None:
        self.config = config if config is not None else PromptEMConfig()
        if (lm is None) != (tokenizer is None):
            raise ValueError("provide both lm and tokenizer, or neither")
        self._lm = lm
        self._tokenizer = tokenizer
        self._pristine_lm_state = None
        self.model: Optional[Module] = None
        self.report: Optional[SelfTrainingReport] = None
        self._summarizer: Optional[TfIdfSummarizer] = None
        self._engine: Optional[InferenceEngine] = None

    # ------------------------------------------------------------------
    def engine(self) -> Optional[InferenceEngine]:
        """The matcher's persistent inference engine (None when disabled).

        Shared by ``predict`` / ``predict_proba`` / ``evaluate`` so the
        encoding cache survives across calls.
        """
        cfg = self.config
        if not cfg.use_engine:
            return None
        if self._engine is None:
            self._engine = InferenceEngine(EngineConfig(
                token_budget=cfg.token_budget,
                max_batch_pairs=max(cfg.batch_size, 32),
                cache_capacity=cfg.engine_cache,
                base_seed=cfg.seed))
        return self._engine

    # ------------------------------------------------------------------
    def _ensure_backbone(self) -> None:
        if self._lm is None:
            self._lm, self._tokenizer = load_pretrained(self.config.model_name)
        if self._pristine_lm_state is None:
            self._pristine_lm_state = self._lm.state_dict()

    def _fit_summarizer(self, pairs: Sequence[CandidatePair]) -> None:
        if not self.config.summarize_long_text:
            self._summarizer = None
            return
        texts: List[str] = []
        for pair in pairs:
            texts.append(serialize(pair.left))
            texts.append(serialize(pair.right))
        self._summarizer = TfIdfSummarizer(
            max_tokens=self.config.summary_tokens).fit(texts)

    def _make_model(self) -> Module:
        """A fresh model around a pristine copy of the pre-trained LM.

        Algorithm 1 initializes a *new* teacher/student per phase; restoring
        the cached pre-trained weights reproduces "initialize the network
        with parameters from the pre-trained LM" without re-training.
        """
        cfg = self.config
        lm = MiniLM(self._lm.config)
        lm.load_state_dict(self._pristine_lm_state)
        if cfg.use_prompt_tuning:
            template = make_template(cfg.template, self._tokenizer,
                                     continuous=cfg.continuous,
                                     max_len=min(cfg.max_len, lm.config.max_len),
                                     tokens_per_slot=cfg.tokens_per_slot)
            verbalizer = (Verbalizer.designed(self._tokenizer.vocab)
                          if cfg.label_words == "designed"
                          else Verbalizer.simple(self._tokenizer.vocab))
            return PromptModel(lm, self._tokenizer, template, verbalizer,
                               summarizer=self._summarizer, seed=cfg.seed)
        return SequenceClassifier(lm, self._tokenizer,
                                  max_len=min(cfg.max_len, lm.config.max_len),
                                  summarizer=self._summarizer, seed=cfg.seed)

    # ------------------------------------------------------------------
    def fit(self, view: LowResourceView) -> "PromptEM":
        """Train on a low-resource view (labeled + unlabeled + valid)."""
        return self.fit_pairs(view.labeled, view.unlabeled, view.valid)

    def fit_pairs(self, labeled: Sequence[CandidatePair],
                  unlabeled: Sequence[CandidatePair],
                  valid: Sequence[CandidatePair]) -> "PromptEM":
        cfg = self.config
        if not labeled:
            raise ValueError("PromptEM needs at least a few labeled pairs")
        self._ensure_backbone()
        self._fit_summarizer(list(labeled) + list(valid))

        unlabeled = list(unlabeled)
        if cfg.unlabeled_cap is not None and len(unlabeled) > cfg.unlabeled_cap:
            rng = np.random.default_rng(cfg.seed)
            keep = rng.choice(len(unlabeled), size=cfg.unlabeled_cap,
                              replace=False)
            unlabeled = [unlabeled[i] for i in sorted(keep)]

        if cfg.use_self_training and cfg.self_training_iterations > 0:
            st_config = SelfTrainingConfig(
                iterations=cfg.self_training_iterations,
                teacher_epochs=cfg.teacher_epochs,
                student_epochs=cfg.student_epochs,
                pseudo_label_ratio=cfg.pseudo_label_ratio,
                selection_strategy=cfg.selection_strategy,
                mc_passes=cfg.mc_passes,
                use_dynamic_pruning=cfg.use_dynamic_pruning,
                prune_ratio=cfg.prune_ratio,
                prune_frequency=cfg.prune_frequency,
                batch_size=cfg.batch_size, lr=cfg.lr,
                weight_decay=cfg.weight_decay, grad_clip=cfg.grad_clip,
                seed=cfg.seed,
                use_engine=cfg.use_engine, token_budget=cfg.token_budget,
                engine_cache=cfg.engine_cache)
            trainer = LightweightSelfTrainer(self._make_model, st_config)
            self.model, self.report = trainer.run(labeled, unlabeled, valid)
        else:
            self.model = self._make_model()
            Trainer(self.model, TrainerConfig(
                epochs=cfg.teacher_epochs, batch_size=cfg.batch_size,
                lr=cfg.lr, weight_decay=cfg.weight_decay,
                grad_clip=cfg.grad_clip, seed=cfg.seed)).fit(
                labeled, valid=valid)
            self.report = None
        return self

    # ------------------------------------------------------------------
    def _require_fitted(self) -> Module:
        if self.model is None:
            raise RuntimeError("call fit() before predicting")
        return self.model

    def predict(self, pairs: Sequence[CandidatePair]) -> np.ndarray:
        """Hard 0/1 match decisions."""
        return predict(self._require_fitted(), pairs,
                       batch_size=self.config.batch_size,
                       engine=self.engine())

    def predict_proba(self, pairs: Sequence[CandidatePair]) -> np.ndarray:
        """(N, 2) class probabilities."""
        return predict_proba(self._require_fitted(), pairs,
                             batch_size=self.config.batch_size,
                             engine=self.engine())

    def evaluate(self, pairs: Sequence[CandidatePair]) -> PRF:
        """Precision / recall / F1 (percent) against the pairs' labels."""
        truth = np.array([p.label for p in pairs], dtype=np.int64)
        preds = self.predict(pairs)
        return PRF.from_labels(truth, preds)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist the fitted matcher (model weights + config + threshold).

        The backbone checkpoint itself is re-resolved from the zoo on load,
        so the file stays small and vocabulary-compatible.
        """
        import dataclasses
        from pathlib import Path

        from ..autograd import save_checkpoint

        model = self._require_fitted()
        metadata = {
            "config": dataclasses.asdict(self.config),
            "decision_threshold": getattr(model, "decision_threshold", None),
        }
        save_checkpoint(model, Path(path), metadata=metadata)

    @classmethod
    def load(cls, path, lm: Optional[MiniLM] = None,
             tokenizer: Optional[Tokenizer] = None) -> "PromptEM":
        """Rebuild a fitted matcher saved with :meth:`save`."""
        import json
        from pathlib import Path

        import numpy as np_module

        from ..autograd import load_checkpoint
        from .config import PromptEMConfig

        # Peek at the metadata first to reconstruct the config.
        with np_module.load(Path(path)) as archive:
            metadata = json.loads(
                archive["__metadata__"].tobytes().decode("utf-8"))
        config = PromptEMConfig(**metadata["config"])
        matcher = cls(config, lm=lm, tokenizer=tokenizer)
        matcher._ensure_backbone()
        # TF-IDF summarizer statistics are not persisted: a reloaded matcher
        # serializes full text (identical behaviour for structured data).
        matcher._summarizer = None
        matcher.model = matcher._make_model()
        load_checkpoint(matcher.model, Path(path))
        threshold = metadata.get("decision_threshold")
        if threshold is not None:
            matcher.model.decision_threshold = threshold
        matcher.model.eval()
        return matcher
