"""Multi-head self-attention."""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from .layers import Dropout, Linear
from .module import Module
from .tensor import Tensor, gather_rows


class MultiHeadAttention(Module):
    """Scaled dot-product multi-head self-attention with padding masking.

    Input and output shape: (batch, seq, d_model). A boolean ``pad_mask``
    of shape (batch, seq) marks padding tokens, which are excluded from the
    softmax over keys.
    """

    def __init__(self, d_model: int, num_heads: int,
                 rng: Optional[np.random.Generator] = None,
                 dropout: float = 0.1,
                 matched_heads: int = 0) -> None:
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by num_heads={num_heads}")
        if not 0 <= matched_heads <= num_heads:
            raise ValueError("matched_heads must be in [0, num_heads]")
        rng = rng if rng is not None else np.random.default_rng()
        self.d_model = d_model
        self.num_heads = num_heads
        self.d_head = d_model // num_heads
        self.scale = 1.0 / np.sqrt(self.d_head)

        self.q_proj = Linear(d_model, d_model, rng=rng)
        self.k_proj = Linear(d_model, d_model, rng=rng)
        self.v_proj = Linear(d_model, d_model, rng=rng)
        self.out_proj = Linear(d_model, d_model, rng=rng)
        self.attn_dropout = Dropout(dropout, rng=np.random.default_rng(rng.integers(2**31)))
        # Content-matching initialization: the first `matched_heads` heads
        # start with identical Q and K projections, so q_i . k_j is maximal
        # when tokens i and j are the same word. This seeds the duplicate-
        # detection circuit that entity comparison relies on; training is
        # free to move away from it.
        for h in range(matched_heads):
            lo, hi = h * self.d_head, (h + 1) * self.d_head
            self.k_proj.weight.data[:, lo:hi] = self.q_proj.weight.data[:, lo:hi]

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        # (B, T, D) -> (B, H, T, Dh)
        return x.reshape(batch, seq, self.num_heads, self.d_head).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor, pad_mask: Optional[np.ndarray] = None,
                rows: Optional[np.ndarray] = None) -> Tensor:
        """(B, T, D) -> (B, T, D), or (B, 1, D) with ``rows``.

        ``rows`` (B,) asks for the output at query position ``rows[b]``
        only: keys and values still cover every position, and the
        attention dropout keeps the full mask's draws at those rows.
        """
        batch, seq, _ = x.shape
        queries = x if rows is None else at_rows(x, rows)
        q_len = queries.shape[1]
        q = self._split_heads(self.q_proj(queries), batch, q_len)
        k = self._split_heads(self.k_proj(x), batch, seq)
        v = self._split_heads(self.v_proj(x), batch, seq)

        scores = (q @ k.transpose(0, 1, 3, 2)) * self.scale  # (B, H, Tq, T)
        if pad_mask is not None:
            mask = F.attention_scores_mask(pad_mask)  # (B, 1, 1, T)
            mask = np.broadcast_to(mask, scores.shape)
            scores = F.masked_fill(scores, mask, -1e9)
        weights = F.softmax(scores, axis=-1)
        weights = self.attn_dropout(weights, rows=rows, seq_len=seq)

        context = weights @ v  # (B, H, Tq, Dh)
        context = context.transpose(0, 2, 1, 3).reshape(batch, q_len, self.d_model)
        return self.out_proj(context)


def at_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """(B, T, D) -> (B, 1, D): position ``rows[b]`` of each sequence."""
    batch, _, width = x.shape
    return gather_rows(x, np.arange(batch), rows).reshape(batch, 1, width)
