"""The per-op training graph that the fused block nodes replaced.

``repro.autograd.blocks`` runs the embedding block, each encoder layer and
each LSTM direction as one hand-differentiated graph node. This module
keeps the forwards those blocks had before: every op recorded as its own
``Tensor`` node, exactly as they were written. :func:`reference_graph`
installs them for the duration of a block, so a test can run the same step
twice and require the nodes' loss, gradients and dropout draws to be
bit-identical to this graph's.

Under the reference the no-grad inference kernels still run the block
kernels (``repro.infer.fastpath`` has no per-op twin); only graph-recording
forwards change.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

import numpy as np

from repro.autograd import (
    LSTM, FeedForward, MultiHeadAttention, Tensor, TransformerEncoderLayer,
    functional as F, gather_rows, stack, where,
)
from repro.core.prompt_model import PromptModel
from repro.lm.model import MiniLM


def at_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """(B, T, D) -> (B, 1, D): position ``rows[b]`` of each sequence."""
    batch, _, width = x.shape
    return gather_rows(x, np.arange(batch), rows).reshape(batch, 1, width)


def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
    # (B, T, D) -> (B, H, T, Dh)
    return x.reshape(batch, seq, self.num_heads, self.d_head).transpose(0, 2, 1, 3)


def attention_forward(self, x: Tensor, pad_mask: Optional[np.ndarray] = None,
                      rows: Optional[np.ndarray] = None) -> Tensor:
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


def feed_forward(self, x: Tensor, rows: Optional[np.ndarray] = None,
                 seq_len: Optional[int] = None) -> Tensor:
    return self.dropout(self.fc2(F.gelu(self.fc1(x))), rows=rows,
                        seq_len=seq_len)


def encoder_layer_forward(self, x: Tensor,
                          pad_mask: Optional[np.ndarray] = None,
                          rows: Optional[np.ndarray] = None) -> Tensor:
    seq_len = x.shape[1]
    attn_out = self.dropout(self.attention(x, pad_mask=pad_mask, rows=rows),
                            rows=rows, seq_len=seq_len)
    adapter = getattr(self, "adapter_attn", None)
    if adapter is not None:
        attn_out = adapter(attn_out)
    residual = x if rows is None else at_rows(x, rows)
    x = self.norm1(residual + attn_out)
    ffn_out = self.ffn(x, rows=rows, seq_len=seq_len)
    adapter = getattr(self, "adapter_ffn", None)
    if adapter is not None:
        ffn_out = adapter(ffn_out)
    x = self.norm2(x + ffn_out)
    return x if rows is None else x.reshape(x.shape[0], x.shape[2])


def lstm_forward(self, x: Tensor) -> Tensor:
    batch, seq, _ = x.shape
    h = Tensor(np.zeros((batch, self.hidden_size)))
    c = Tensor(np.zeros((batch, self.hidden_size)))
    steps = range(seq - 1, -1, -1) if self.reverse else range(seq)
    outputs: list = [None] * seq
    for t in steps:
        h, c = self.cell(x[:, t, :], (h, c))
        outputs[t] = h
    return stack(outputs, axis=1)  # (batch, seq, hidden)


def embed(self, token_ids: np.ndarray) -> Tensor:
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


def embed_from_vectors(self, vectors: Tensor, positions: np.ndarray,
                       token_ids: Optional[np.ndarray] = None) -> Tensor:
    x = vectors + self.position_embedding(positions)
    if token_ids is not None:
        x = x + self.duplicate_embedding(self.duplicate_flags(token_ids))
    return self.embedding_dropout(self.embedding_norm(x))


def mask_logits_encoded(self, encodings, tile: int = 1) -> Tensor:
    ids, pad_mask, is_prompt, prompt_idx, mask_positions = \
        self._assemble(encodings)
    if tile > 1:
        ids = np.tile(ids, (tile, 1))
        pad_mask = np.tile(pad_mask, (tile, 1))
        is_prompt = np.tile(is_prompt, (tile, 1))
        prompt_idx = np.tile(prompt_idx, (tile, 1))
        mask_positions = np.tile(mask_positions, tile)
    batch, longest = ids.shape

    token_vecs = self.lm.token_embedding(ids)
    if self.prompt_encoder is not None and is_prompt.any():
        prompt_vecs = self.prompt_encoder()  # (P, D)
        gathered = prompt_vecs[prompt_idx.reshape(-1)].reshape(
            batch, longest, self.lm.config.d_model)
        condition = np.broadcast_to(
            is_prompt[:, :, None],
            (batch, longest, self.lm.config.d_model))
        token_vecs = where(condition, gathered, token_vecs)

    positions = np.broadcast_to(np.arange(longest), ids.shape)
    embeds = self.lm.embed_from_vectors(token_vecs, positions,
                                        token_ids=ids)
    at_mask = self.lm.encode(ids, pad_mask=pad_mask, inputs_embeds=embeds,
                             rows=mask_positions)
    return self.lm.mlm_logits(at_mask)


#: (owner, attribute, per-op forward) installed by ``reference_graph``
REFERENCE_FORWARDS = (
    (MultiHeadAttention, "_split_heads", _split_heads),
    (MultiHeadAttention, "forward", attention_forward),
    (FeedForward, "forward", feed_forward),
    (TransformerEncoderLayer, "forward", encoder_layer_forward),
    (LSTM, "forward", lstm_forward),
    (MiniLM, "embed", embed),
    (MiniLM, "embed_from_vectors", embed_from_vectors),
    (PromptModel, "mask_logits_encoded", mask_logits_encoded),
)

_MISSING = object()


@contextmanager
def reference_graph():
    """Record the per-op graph instead of the block nodes inside the block.

    Patches the classes themselves, so every model (built before or inside
    the block) records op by op; the originals come back on exit.
    """
    saved = [(owner, name, owner.__dict__.get(name, _MISSING))
             for owner, name, _ in REFERENCE_FORWARDS]
    try:
        for owner, name, forward in REFERENCE_FORWARDS:
            setattr(owner, name, forward)
        yield
    finally:
        for owner, name, original in saved:
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
