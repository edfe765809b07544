"""Transformer encoder stack (post-norm, BERT-style)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .attention import MultiHeadAttention
from .blocks import encoder_layer_node
from .layers import Dropout, LayerNorm, Linear
from .module import Module
from .tensor import Tensor


class FeedForward(Module):
    """Position-wise feed-forward block with GELU.

    Holds the FFN's parameters and dropout; the computation runs inside
    the encoder layer's node (:func:`repro.autograd.blocks.feed_forward`).
    """

    def __init__(self, d_model: int, d_ff: int,
                 rng: Optional[np.random.Generator] = None,
                 dropout: float = 0.1) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.fc1 = Linear(d_model, d_ff, rng=rng)
        self.fc2 = Linear(d_ff, d_model, rng=rng)
        self.dropout = Dropout(dropout, rng=np.random.default_rng(rng.integers(2**31)))


class TransformerEncoderLayer(Module):
    """Self-attention + FFN with residual connections and post-layer-norm."""

    def __init__(self, d_model: int, num_heads: int, d_ff: int,
                 rng: Optional[np.random.Generator] = None,
                 dropout: float = 0.1, matched_heads: int = 0) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.attention = MultiHeadAttention(d_model, num_heads, rng=rng, dropout=dropout,
                                            matched_heads=matched_heads)
        self.ffn = FeedForward(d_model, d_ff, rng=rng, dropout=dropout)
        self.norm1 = LayerNorm(d_model)
        self.norm2 = LayerNorm(d_model)
        self.dropout = Dropout(dropout, rng=np.random.default_rng(rng.integers(2**31)))

    def forward(self, x: Tensor, pad_mask: Optional[np.ndarray] = None,
                rows: Optional[np.ndarray] = None) -> Tensor:
        """(B, T, D) -> (B, T, D), or (B, D) at positions ``rows`` (B,).

        With ``rows`` only keys and values see every position; the query,
        attention output, residuals, both LayerNorms and the FFN run on
        one position per sequence, and each dropout keeps the draws the
        full layer would make there (same generator states afterwards).
        Optional PEFT bottleneck adapters (repro.core.peft) hang off the
        layer as ``adapter_attn``/``adapter_ffn``. The layer is one graph
        node (:func:`repro.autograd.blocks.encoder_layer_node`).
        """
        return encoder_layer_node(self, x, pad_mask, rows)


class TransformerEncoder(Module):
    """A stack of encoder layers."""

    def __init__(self, num_layers: int, d_model: int, num_heads: int, d_ff: int,
                 rng: Optional[np.random.Generator] = None,
                 dropout: float = 0.1, matched_heads: int = 0) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.num_layers = num_layers
        self.layers = []
        for i in range(num_layers):
            layer = TransformerEncoderLayer(d_model, num_heads, d_ff, rng=rng, dropout=dropout,
                                            matched_heads=matched_heads)
            self.register_module(f"layer{i}", layer)
            self.layers.append(layer)

    def forward(self, x: Tensor, pad_mask: Optional[np.ndarray] = None,
                rows: Optional[np.ndarray] = None) -> Tensor:
        """(B, T, D) hidden states, or (B, D) at positions ``rows`` (B,).

        A head that reads one position per sequence (the prompt model's
        [MASK]) passes ``rows``: the last layer then runs only there.
        """
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x = layer(x, pad_mask=pad_mask, rows=rows if i == last else None)
        return x
