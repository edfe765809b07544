"""MiniLM: a small transformer masked language model.

This is the reproduction's stand-in for RoBERTa-base. It exposes exactly the
three surfaces the PromptEM pipeline and the baselines need:

* :meth:`MiniLM.encode` -- contextual hidden states for a padded batch;
* :meth:`MiniLM.mlm_logits` -- vocabulary logits at every position, with the
  decoder tied to the input embedding (the MLM head whose pre-trained
  knowledge prompt-tuning exploits);
* :meth:`MiniLM.pooled` -- tanh-pooled [CLS] representation used by
  fine-tuning classification heads (vanilla fine-tuning, Section 2.3).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..autograd import (
    Dropout, Embedding, LayerNorm, Linear, Module, Parameter, Tensor,
    TransformerEncoder, functional as F,
)
from .config import LMConfig


class MiniLM(Module):
    """Transformer encoder with tied-embedding MLM head."""

    def __init__(self, config: LMConfig) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)

        self.token_embedding = Embedding(config.vocab_size, config.d_model,
                                         rng=rng, padding_idx=0)
        self.position_embedding = Embedding(config.max_len, config.d_model, rng=rng)
        # Lexical-matching indicator (ESIM-style): tokens that occur more
        # than once in the sequence -- i.e. shared between the two entity
        # segments of a pair -- receive a learned "duplicate" embedding.
        # Large pre-trained LMs develop this duplicate-detection circuit
        # during pre-training; at MiniLM scale we supply it architecturally
        # so the *rest* of the pipeline (MLM head vs classification head,
        # self-training, pruning) is exercised faithfully.
        self.duplicate_embedding = Embedding(2, config.d_model, rng=rng)
        self.embedding_norm = LayerNorm(config.d_model)
        self.embedding_dropout = Dropout(
            config.dropout, rng=np.random.default_rng(rng.integers(2**31)))
        self.encoder = TransformerEncoder(
            config.num_layers, config.d_model, config.num_heads, config.d_ff,
            rng=rng, dropout=config.dropout,
            matched_heads=config.matched_heads)

        # MLM head: transform + tied decoder (logits share the embedding table).
        self.mlm_transform = Linear(config.d_model, config.d_model, rng=rng)
        self.mlm_norm = LayerNorm(config.d_model)
        self.mlm_bias = Parameter(np.zeros(config.vocab_size))

        # Pooler for classification-style heads.
        self.pooler = Linear(config.d_model, config.d_model, rng=rng)

    # ------------------------------------------------------------------
    @staticmethod
    def duplicate_flags(token_ids: np.ndarray,
                        num_special: int = 7) -> np.ndarray:
        """(B, T) -> (B, T) int flags: 1 where a non-special token id occurs
        more than once within its sequence."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        flags = np.zeros_like(token_ids)
        for i, row in enumerate(token_ids):
            values, counts = np.unique(row, return_counts=True)
            repeated = set(values[(counts > 1) & (values >= num_special)])
            if repeated:
                flags[i] = np.isin(row, list(repeated)).astype(np.int64)
        return flags

    def embed(self, token_ids: np.ndarray) -> Tensor:
        """(B, T) int ids -> (B, T, D) embeddings with positions."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 2:
            raise ValueError(f"expected (batch, seq) ids, got shape {token_ids.shape}")
        seq_len = token_ids.shape[1]
        if seq_len > self.config.max_len:
            raise ValueError(
                f"sequence length {seq_len} exceeds max_len {self.config.max_len}")
        positions = np.broadcast_to(np.arange(seq_len), token_ids.shape)
        x = (self.token_embedding(token_ids)
             + self.position_embedding(positions)
             + self.duplicate_embedding(self.duplicate_flags(token_ids)))
        return self.embedding_dropout(self.embedding_norm(x))

    def encode(self, token_ids: np.ndarray,
               pad_mask: Optional[np.ndarray] = None,
               inputs_embeds: Optional[Tensor] = None,
               rows: Optional[np.ndarray] = None) -> Tensor:
        """Contextual hidden states (B, T, D), or (B, D) with ``rows``.

        ``inputs_embeds`` lets P-tuning splice trainable continuous prompt
        vectors directly into the embedding stream (paper Section 3.1).
        ``rows`` (B,) returns only position ``rows[b]`` of each sequence,
        and the last encoder layer runs only there (see
        :meth:`TransformerEncoder.forward`).
        """
        if inputs_embeds is None:
            inputs_embeds = self.embed(token_ids)
        else:
            token_ids = np.asarray(token_ids, dtype=np.int64)
        if pad_mask is None:
            pad_mask = token_ids == 0
        return self.encoder(inputs_embeds, pad_mask=pad_mask, rows=rows)

    def embed_from_vectors(self, vectors: Tensor, positions: np.ndarray,
                           token_ids: Optional[np.ndarray] = None) -> Tensor:
        """Apply positional (and duplicate, when ids are given) embeddings +
        norm + dropout to raw token vectors (the P-tuning injection path)."""
        x = vectors + self.position_embedding(positions)
        if token_ids is not None:
            x = x + self.duplicate_embedding(self.duplicate_flags(token_ids))
        return self.embedding_dropout(self.embedding_norm(x))

    def mlm_logits(self, hidden: Tensor) -> Tensor:
        """(B, T, D) hidden -> (B, T, V) vocabulary logits (tied decoder)."""
        h = self.mlm_norm(F.gelu(self.mlm_transform(hidden)))
        return h @ self.token_embedding.weight.T + self.mlm_bias

    def pooled(self, hidden: Tensor) -> Tensor:
        """Tanh-pooled [CLS] vector: (B, T, D) -> (B, D)."""
        return self.pooler(hidden[:, 0, :]).tanh()

    # ------------------------------------------------------------------
    def forward(self, token_ids: np.ndarray,
                pad_mask: Optional[np.ndarray] = None) -> Tensor:
        return self.encode(token_ids, pad_mask=pad_mask)


def pad_batch(sequences, pad_id: int = 0,
              max_len: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Pad a list of id lists to a rectangular (B, T) batch.

    Returns (ids, pad_mask) where pad_mask is True at padding positions.
    """
    if not sequences:
        raise ValueError("cannot pad an empty batch")
    longest = max(len(s) for s in sequences)
    if max_len is not None:
        longest = min(longest, max_len)
    ids = np.full((len(sequences), longest), pad_id, dtype=np.int64)
    mask = np.ones((len(sequences), longest), dtype=bool)
    for i, seq in enumerate(sequences):
        seq = list(seq)[:longest]
        ids[i, : len(seq)] = seq
        mask[i, : len(seq)] = False
    return ids, mask
