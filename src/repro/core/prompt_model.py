"""PromptModel: MiniLM + template + verbalizer = GEM as a cloze task.

This is the paper's core idea (Section 3): instead of a randomly initialized
classification head over [CLS], the *pre-trained MLM head* predicts the
[MASK] token of a GEM-specific template, and the verbalizer turns label-word
probabilities into class scores. No new output parameters are introduced
(beyond optional continuous prompts), so the objective form matches
pre-training exactly.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..autograd import Module, Tensor, functional as F, is_grad_enabled
from ..data.dataset import CandidatePair
from ..data.serialize import serialize
from ..infer import PairEncoding
from ..infer.fastpath import prompt_forward_encoded
from ..lm.model import MiniLM
from ..text import Tokenizer
from ..text.tfidf import TfIdfSummarizer
from .templates import PROMPT_PLACEHOLDER, PromptEncoder, Template
from .verbalizer import Verbalizer

_EPS = 1e-12


class PromptModel(Module):
    """Scores candidate pairs via masked-language-model cloze prediction."""

    def __init__(self, lm: MiniLM, tokenizer: Tokenizer, template: Template,
                 verbalizer: Verbalizer,
                 summarizer: Optional[TfIdfSummarizer] = None,
                 seed: int = 0) -> None:
        super().__init__()
        self.lm = lm
        self.tokenizer = tokenizer
        self.template = template
        self.verbalizer = verbalizer
        self.summarizer = summarizer
        if template.num_prompt_tokens > 0:
            self.prompt_encoder = PromptEncoder(
                template.num_prompt_tokens, lm.config.d_model,
                rng=np.random.default_rng(seed))
        else:
            self.prompt_encoder = None

    # ------------------------------------------------------------------
    def _render(self, pair: CandidatePair):
        left = serialize(pair.left, summarizer=self.summarizer)
        right = serialize(pair.right, summarizer=self.summarizer)
        return self.template.render(left, right)

    def encode_pair(self, pair: CandidatePair) -> PairEncoding:
        """Render one pair to cacheable token ids (engine protocol)."""
        inst = self._render(pair)
        return PairEncoding(ids=inst.ids, mask_position=inst.mask_position)

    def encoding_fingerprint(self) -> tuple:
        """Cache-key component: everything that shapes an encoding."""
        return ("prompt", type(self.template).__name__,
                getattr(self.template, "layout", None),
                self.template.max_len,
                getattr(self.template, "tokens_per_slot", 0),
                id(self.tokenizer), id(self.summarizer))

    def _assemble(self, encodings: Sequence[PairEncoding]):
        """Pad a batch of encodings; returns numpy bookkeeping arrays."""
        batch = len(encodings)
        longest = max(len(enc.ids) for enc in encodings)
        pad_id = self.tokenizer.vocab.pad_id

        ids = np.full((batch, longest), pad_id, dtype=np.int64)
        pad_mask = np.ones((batch, longest), dtype=bool)
        is_prompt = np.zeros((batch, longest), dtype=bool)
        prompt_idx = np.zeros((batch, longest), dtype=np.int64)
        mask_positions = np.zeros(batch, dtype=np.int64)

        for i, enc in enumerate(encodings):
            seq = enc.ids
            slots = seq == PROMPT_PLACEHOLDER
            clean = np.where(slots, pad_id, seq)
            n = len(seq)
            ids[i, :n] = clean
            pad_mask[i, :n] = False
            is_prompt[i, :n] = slots
            prompt_idx[i, :n][slots] = np.arange(slots.sum())
            mask_positions[i] = enc.mask_position
        return ids, pad_mask, is_prompt, prompt_idx, mask_positions

    # ------------------------------------------------------------------
    def mask_logits(self, pairs: Sequence[CandidatePair]) -> Tensor:
        """(B, V) vocabulary logits at each instance's [MASK] position."""
        return self.mask_logits_encoded([self.encode_pair(p) for p in pairs])

    def mask_logits_encoded(self, encodings: Sequence[PairEncoding],
                            tile: int = 1) -> Tensor:
        """Mask logits from pre-rendered encodings, optionally tiled.

        ``tile > 1`` repeats the padded batch along the batch axis (rows
        ``[0, B)`` are tile 0, ``[B, 2B)`` tile 1, ...), which is how the
        engine runs all MC-Dropout passes in one forward.
        """
        ids, pad_mask, is_prompt, prompt_idx, mask_positions = \
            self._assemble(encodings)
        if tile > 1:
            ids = np.tile(ids, (tile, 1))
            pad_mask = np.tile(pad_mask, (tile, 1))
            is_prompt = np.tile(is_prompt, (tile, 1))
            prompt_idx = np.tile(prompt_idx, (tile, 1))
            mask_positions = np.tile(mask_positions, tile)
        prompt = (self.prompt_encoder()
                  if self.prompt_encoder is not None and is_prompt.any()
                  else None)  # (P, D)
        embeds = self.lm.embed(ids, prompt=prompt, is_prompt=is_prompt,
                               prompt_idx=prompt_idx)
        # the head reads only the [MASK] rows, so the last encoder layer
        # runs only there and the (d, V) vocab head projects (B, d) rows
        at_mask = self.lm.encode(ids, pad_mask=pad_mask, inputs_embeds=embeds,
                                 rows=mask_positions)
        return self.lm.mlm_logits(at_mask)

    def _class_probs(self, mask_logits: Tensor) -> Tensor:
        probs = F.softmax(mask_logits, axis=-1)
        scores = self.verbalizer.class_probs(probs)
        total = scores.sum(axis=1, keepdims=True)
        return scores / (total + _EPS)

    def forward(self, pairs: Sequence[CandidatePair]) -> Tensor:
        """(B, 2) normalized class probabilities.

        Eq. 1 produces unnormalized class scores (mean label-word
        probability); we normalize over the two classes so downstream
        consumers (loss, MC-Dropout statistics, EL2N) can treat the output
        as a proper distribution. Normalization is monotone, so argmax
        predictions match the paper's Eq. 1 inference rule exactly.
        """
        return self._class_probs(self.mask_logits(pairs))

    def forward_encoded(self, encodings: Sequence[PairEncoding],
                        tile: int = 1) -> Tensor:
        """(tile * B, 2) probabilities from cached encodings (engine path).

        Under ``no_grad`` this dispatches to :mod:`repro.infer.fastpath`
        (the same block kernels and dropout draws, bit-identical, no
        autograd bookkeeping); with gradients enabled it records the graph.
        """
        if not is_grad_enabled():
            return Tensor(prompt_forward_encoded(self, encodings, tile=tile))
        return self._class_probs(self.mask_logits_encoded(encodings, tile=tile))

    def loss(self, pairs: Sequence[CandidatePair],
             labels: np.ndarray,
             sample_weights: Optional[np.ndarray] = None) -> Tensor:
        """Cross-entropy over verbalized class probabilities."""
        return self.loss_encoded([self.encode_pair(p) for p in pairs],
                                 labels, sample_weights)

    def loss_encoded(self, encodings: Sequence[PairEncoding],
                     labels: np.ndarray,
                     sample_weights: Optional[np.ndarray] = None) -> Tensor:
        """Same loss from pre-rendered encodings (trainer fastpath).

        Lets :class:`~repro.core.trainer.Trainer` reuse the inference
        engine's encoding cache for training batches instead of
        re-serializing every pair each epoch.
        """
        probs = self._class_probs(self.mask_logits_encoded(encodings))
        labels = np.asarray(labels, dtype=np.int64)
        picked = probs[(np.arange(len(labels)), labels)]
        logs = (picked + _EPS).log()
        if sample_weights is not None:
            weights = np.asarray(sample_weights, dtype=np.float64)
            weighted = -(logs * Tensor(weights)).sum()
            total = weights.sum()
            if total <= 0:
                return Tensor(0.0)
            return weighted / total
        return -logs.mean()
