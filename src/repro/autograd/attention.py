"""Multi-head self-attention."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .blocks import attention_node
from .layers import Dropout, Linear
from .module import Module
from .tensor import Tensor


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

    def forward(self, x: Tensor, pad_mask: Optional[np.ndarray] = None,
                rows: Optional[np.ndarray] = None) -> Tensor:
        """(B, T, D) -> (B, T, D), or (B, 1, D) with ``rows``.

        ``rows`` (B,) asks for the output at query position ``rows[b]``
        only: keys and values still cover every position, and the
        attention dropout keeps the full mask's draws at those rows. One
        graph node (:func:`repro.autograd.blocks.attention_node`); inside
        an encoder layer the attention runs within the layer's node.
        """
        return attention_node(self, x, pad_mask, rows)
