"""Raw-numpy inference behind ``forward_encoded``.

The autograd :class:`~repro.autograd.Tensor` pays for generality: every op
allocates a wrapper and records a backward closure. None of that is needed
under ``no_grad``, so the engine-facing ``forward_encoded`` methods run
this module instead. The embedding block, each encoder layer and each
LSTM direction are the kernels of :mod:`repro.autograd.blocks`, the very
code a training step's graph nodes run, here called without a tape (no
kept activations, in place on owned temporaries, recycled scratch buffers
for the attention products). Guarantees:

* **same numbers** -- the blocks are one implementation for training and
  inference, and the MLM head and verbalizer here mirror their Tensor ops
  in the same order (including float32 coercion of scalar constants), so
  ``prompt_forward_encoded`` is bit-identical to the recorded path;
* **same randomness** -- dropout masks come from the very same
  :class:`~repro.autograd.Dropout` modules (``Dropout.keep_mask``:
  plan-aware seeded masks, or the module's own rng as a fallback), so
  MC-Dropout draws are unchanged;
* **less work** -- the prompt model's head reads only the [MASK] row, so
  the last encoder layer runs only there: keys and values at every
  position, but the query, attention output, residuals, LayerNorms and
  FFN on one row per sequence, and the MLM head decodes (B, D) instead of
  (B, T, D). That layer's dropouts draw only the mask rows it uses and
  skip the rest with PCG64's ``advance``, so every kept draw and every
  generator's final state equal the full-shape draw's, and MC-Dropout
  pseudo-labels, MC-EL2N scores and training trajectories are unchanged.
  Duplicate-token flags are memoized per encoding;
* **computed once per weights** -- the (P, D) prompt matrix depends only
  on the prompt encoder's parameters, so ``prompt_matrix`` memoizes it on
  the encoder together with a copy of every parameter array and the
  default dtype it was computed under. Each call compares that snapshot
  with the live arrays (dtype and values, ``np.array_equal``) and
  recomputes on any difference, so an in-place optimizer step, a
  shared-memory weight adoption, ``load_state_dict`` or a default-dtype
  switch can never be served a stale matrix. The comparison costs a
  fraction of the BiLSTM it skips, and the memo is read-only so no caller
  can corrupt it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..autograd import blocks
from ..autograd.tensor import get_default_dtype
from ..kernels import scratch_buf


def encoder_hidden(lm, embeds: np.ndarray, pad_mask: Optional[np.ndarray],
                   rows: Optional[np.ndarray] = None) -> np.ndarray:
    """The TransformerEncoder stack on raw arrays: (B, T, D) -> (B, T, D).

    With ``rows`` (B,) the last layer runs only at position ``rows[b]``
    of each sequence and the result is (B, D), as in
    ``TransformerEncoder.forward``.
    """
    # A no-padding batch (length-homogeneous bucket) masks nothing; skip
    # the (B, H, T, T) masked fill entirely in that case.
    mask = blocks.score_mask(pad_mask)
    x = embeds
    last = len(lm.encoder.layers) - 1
    for i, layer in enumerate(lm.encoder.layers):
        x = blocks.encoder_layer(layer, x, mask, rows if i == last else None)
    return x


def prompt_matrix(encoder) -> np.ndarray:
    """(P, D) continuous prompt vectors, without the autograd graph.

    A P-tuning ``PromptEncoder`` (embeddings -> BiLSTM -> ReLU -> MLP) runs
    its LSTM kernels and numpy twins of the ReLU and MLP in the Tensor
    ops' order, so the result equals ``encoder().data`` bit for bit without
    the graph bookkeeping. The result is read-only and memoized on the
    encoder until any parameter's dtype or value, or the default dtype,
    changes (see the module docstring). Any other prompt source (a
    ``SoftPrompt``, a fused tenant stack) already is a plain matrix and is
    read as is.
    """
    lstm = getattr(encoder, "lstm", None)
    if lstm is None:
        return encoder().data
    params = [param.data for param in encoder.parameters()]
    dtype = get_default_dtype()
    memo = getattr(encoder, "_prompt_matrix_memo", None)
    if memo is not None:
        memo_dtype, snapshot, matrix = memo
        if memo_dtype is dtype and len(snapshot) == len(params) and all(
                live.dtype == kept.dtype and np.array_equal(live, kept)
                for live, kept in zip(params, snapshot)):
            return matrix
    seq = encoder.embeddings.data.reshape(1, encoder.num_tokens,
                                          encoder.d_model)
    encoded = np.concatenate((blocks.lstm(lstm.forward_lstm, seq),
                              blocks.lstm(lstm.backward_lstm, seq)), axis=-1)
    out = encoded * (encoded > 0)  # relu, as Tensor.relu computes it
    for layer in encoder.mlp.layers:
        out = blocks.linear(layer, out)
    out = out.reshape(encoder.num_tokens, encoder.d_model)
    out.flags.writeable = False
    encoder._prompt_matrix_memo = (dtype, [p.copy() for p in params], out)
    return out


def _cached_dup_flags(lm, encodings, ids: np.ndarray) -> np.ndarray:
    """Duplicate-token flags, memoized on each encoding.

    Pad tokens are special ids and never count as duplicates, so per-row
    flags are padding-invariant and safe to cache with the encoding.
    """
    flags = np.zeros_like(ids)
    for i, enc in enumerate(encodings):
        if enc.dup_flags is None:
            n = len(enc.ids)
            enc.dup_flags = lm.duplicate_flags(ids[i:i + 1, :n])[0]
        flags[i, :len(enc.dup_flags)] = enc.dup_flags
    return flags


def _tile(arr: np.ndarray, tile: int) -> np.ndarray:
    return np.tile(arr, (tile,) + (1,) * (arr.ndim - 1)) if tile > 1 else arr


def prompt_forward_encoded(model, encodings: Sequence, tile: int = 1) -> np.ndarray:
    """Fast twin of ``PromptModel.forward_encoded``: (tile * B, 2) probs."""
    lm = model.lm
    ids, pad_mask, is_prompt, prompt_idx, mask_positions = \
        model._assemble(encodings)
    flags = _cached_dup_flags(lm, encodings, ids)
    ids, pad_mask, flags = _tile(ids, tile), _tile(pad_mask, tile), _tile(flags, tile)
    is_prompt, prompt_idx = _tile(is_prompt, tile), _tile(prompt_idx, tile)
    mask_positions = np.tile(mask_positions, tile) if tile > 1 else mask_positions

    prompt = (prompt_matrix(model.prompt_encoder)
              if model.prompt_encoder is not None and is_prompt.any()
              else None)
    embeds = blocks.embed(lm, ids, flags, prompt, is_prompt, prompt_idx)
    at_mask = encoder_hidden(lm, embeds, pad_mask,
                             rows=mask_positions)  # (B, D)
    h = blocks.gelu(blocks.linear(lm.mlm_transform, at_mask))
    h = blocks.layer_norm(h, lm.mlm_norm.gamma.data, lm.mlm_norm.beta.data,
                          lm.mlm_norm.eps)
    vocab = lm.token_embedding.weight.data
    logits = scratch_buf("logits", (len(h), len(vocab)), h.dtype)
    np.matmul(h, vocab.T, out=logits)
    logits += lm.mlm_bias.data

    probs = blocks.softmax(logits)
    dt = probs.dtype.type
    cols = []
    for label in (0, 1):  # Eq. 1, mirroring Verbalizer.class_probs
        word_ids = model.verbalizer.ids[label]
        cols.append(probs[:, word_ids].sum(axis=1) * dt(1.0 / len(word_ids)))
    scores = np.stack(cols, axis=1)
    return scores / (scores.sum(axis=1, keepdims=True) + dt(1e-12))


def cls_forward_encoded(model, ids: np.ndarray, pad_mask: np.ndarray,
                        encodings: Sequence, tile: int = 1) -> np.ndarray:
    """Fast twin of ``SequenceClassifier.forward_encoded``."""
    lm = model.lm
    flags = _cached_dup_flags(lm, encodings, ids)
    ids, pad_mask, flags = _tile(ids, tile), _tile(pad_mask, tile), _tile(flags, tile)

    hidden = encoder_hidden(lm, blocks.embed(lm, ids, flags), pad_mask)
    pooled = np.tanh(blocks.linear(lm.pooler, hidden[:, 0, :]))
    pooled = blocks.dropout(model.head_dropout, pooled)
    return blocks.softmax(blocks.linear(model.head, pooled))
