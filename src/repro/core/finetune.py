"""Vanilla fine-tuning classifier (paper Section 2.3).

Serializes the pair as ``[CLS] e [SEP] e' [SEP]``, pools [CLS], and trains a
randomly initialized softmax head. This is both the "PromptEM w/o PT"
ablation and the backbone of the BERT / Ditto / Rotom baselines -- the
contrast against :class:`~repro.core.prompt_model.PromptModel` is exactly
the fine-tuning-vs-prompt-tuning gap the paper studies.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..autograd import Dropout, Linear, Module, Tensor, functional as F, \
    is_grad_enabled
from ..data.dataset import CandidatePair
from ..data.serialize import serialize
from ..infer import PairEncoding
from ..infer.fastpath import cls_forward_encoded
from ..lm.model import MiniLM, pad_batch
from ..text import Tokenizer
from ..text.tfidf import TfIdfSummarizer

_EPS = 1e-12


class SequenceClassifier(Module):
    """LM + pooled [CLS] + linear head over two classes."""

    def __init__(self, lm: MiniLM, tokenizer: Tokenizer,
                 max_len: int = 128,
                 summarizer: Optional[TfIdfSummarizer] = None,
                 dropout: float = 0.1,
                 seed: int = 0,
                 augmenter=None) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.lm = lm
        self.tokenizer = tokenizer
        self.max_len = min(max_len, lm.config.max_len)
        self.summarizer = summarizer
        self.head = Linear(lm.config.d_model, 2, rng=rng)
        self.head_dropout = Dropout(dropout, rng=np.random.default_rng(seed + 1))
        #: optional text-pair augmenter applied during training (Ditto/Rotom)
        self.augmenter = augmenter

    def _texts(self, pair: CandidatePair) -> tuple:
        return (serialize(pair.left, summarizer=self.summarizer),
                serialize(pair.right, summarizer=self.summarizer))

    def _encode_batch(self, pairs: Sequence[CandidatePair]):
        sequences = []
        for pair in pairs:
            left, right = self._texts(pair)
            if self.augmenter is not None and self.training:
                left, right = self.augmenter(left, right)
            enc = self.tokenizer.encode_pair(left, right, max_len=self.max_len)
            sequences.append(enc.ids)
        return pad_batch(sequences, pad_id=self.tokenizer.vocab.pad_id)

    def encode_pair(self, pair: CandidatePair) -> PairEncoding:
        """Tokenize one pair for the inference engine.

        Inference semantics: the training-time augmenter is *not* applied,
        matching what ``predict_proba`` (eval mode) would feed the model.
        """
        left, right = self._texts(pair)
        enc = self.tokenizer.encode_pair(left, right, max_len=self.max_len)
        return PairEncoding(ids=enc.ids)

    def encoding_fingerprint(self) -> tuple:
        return ("cls", self.max_len, id(self.tokenizer), id(self.summarizer))

    def logits(self, pairs: Sequence[CandidatePair]) -> Tensor:
        ids, pad_mask = self._encode_batch(pairs)
        return self._logits_from_ids(ids, pad_mask)

    def _logits_from_ids(self, ids, pad_mask) -> Tensor:
        hidden = self.lm.encode(ids, pad_mask=pad_mask)
        pooled = self.head_dropout(self.lm.pooled(hidden))
        return self.head(pooled)

    def forward(self, pairs: Sequence[CandidatePair]) -> Tensor:
        """(B, 2) class probabilities."""
        return F.softmax(self.logits(pairs), axis=-1)

    def forward_encoded(self, encodings: Sequence[PairEncoding],
                        tile: int = 1) -> Tensor:
        """(tile * B, 2) probabilities from cached encodings (engine path).

        Under ``no_grad`` this runs the raw-numpy kernels in
        :mod:`repro.infer.fastpath`; see ``PromptModel.forward_encoded``.
        """
        ids, pad_mask = pad_batch([enc.ids for enc in encodings],
                                  pad_id=self.tokenizer.vocab.pad_id)
        if not is_grad_enabled():
            return Tensor(cls_forward_encoded(self, ids, pad_mask,
                                              encodings, tile=tile))
        if tile > 1:
            ids = np.tile(ids, (tile, 1))
            pad_mask = np.tile(pad_mask, (tile, 1))
        return F.softmax(self._logits_from_ids(ids, pad_mask), axis=-1)

    def loss(self, pairs: Sequence[CandidatePair], labels: np.ndarray,
             sample_weights: Optional[np.ndarray] = None) -> Tensor:
        return F.cross_entropy(self.logits(pairs),
                               np.asarray(labels, dtype=np.int64),
                               sample_weights=sample_weights)

    def supports_encoded_training(self) -> bool:
        """Cached encodings are augmentation-free, so a model training with
        an augmenter (Ditto/Rotom) must keep re-encoding every batch."""
        return self.augmenter is None

    def loss_encoded(self, encodings: Sequence[PairEncoding],
                     labels: np.ndarray,
                     sample_weights: Optional[np.ndarray] = None) -> Tensor:
        """Same loss from pre-rendered encodings (trainer fastpath)."""
        ids, pad_mask = pad_batch([enc.ids for enc in encodings],
                                  pad_id=self.tokenizer.vocab.pad_id)
        return F.cross_entropy(self._logits_from_ids(ids, pad_mask),
                               np.asarray(labels, dtype=np.int64),
                               sample_weights=sample_weights)
