"""Raw-numpy inference kernels behind ``forward_encoded``.

The autograd :class:`~repro.autograd.Tensor` pays for generality: every op
allocates a wrapper, scalar ``x ** 3`` walks ``np.power``'s slow path, and
``masked_fill`` materializes a full ``-1e9`` array. None of that is needed
under ``no_grad``, so the engine-facing ``forward_encoded`` methods run
this module instead: a plain-numpy replication of the exact same math, op
for op, in the same order. Guarantees:

* **same numbers** -- each kernel mirrors its Tensor twin (including
  float32 coercion of scalar constants and ``sum * (1/n)`` means), so
  results agree with the reference path to float32 round-off;
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
  The P-tuning prompt encoder runs as a numpy twin (``prompt_matrix``,
  bit-identical), and duplicate-token flags are memoized per encoding;
* **less memory traffic** -- kernels run in place on owned temporaries
  (same operation order, so bit-identical results), q/k/v come from one
  fused (D, 3D) projection, the big attention matmuls write into
  recycled per-thread scratch buffers, and a no-padding batch skips the
  attention mask fill entirely.

Training never comes through here: with gradients enabled the models use
the recorded Tensor path, which remains the reference implementation.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

import numpy as np

from ..autograd.tensor import get_default_dtype

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))

_scratch = threading.local()


def _scratch_buf(key: str, shape, dtype) -> np.ndarray:
    """Reusable per-thread output buffer for the large attention matmuls.

    Allocating the (B, H, T, T) score array anew on every forward means a
    multi-megabyte mmap plus first-touch page faults per batch; recycling
    one buffer per (key, thread) removes that cost. GEMM with ``out=``
    overwrites every element, so reuse is bit-transparent.
    """
    store = getattr(_scratch, "bufs", None)
    if store is None:
        store = _scratch.bufs = {}
    buf = store.get(key)
    if buf is None or buf.shape != tuple(shape) or buf.dtype != dtype:
        buf = store[key] = np.empty(shape, dtype)
    return buf


def _apply_dropout(module, x: np.ndarray, rows: Optional[np.ndarray] = None,
                   seq_len: Optional[int] = None) -> np.ndarray:
    """Numpy twin of ``Dropout.forward`` (no per-call seed variant).

    Mutates ``x`` (every caller passes an owned temporary); the mask comes
    from ``Dropout.keep_mask``, already in ``x``'s dtype.
    """
    mask = module.keep_mask(x.shape, x.dtype, rows, seq_len)
    if mask is not None:
        x *= mask
    return x


def _linear(fc, x: np.ndarray) -> np.ndarray:
    out = x @ fc.weight.data
    if fc.bias is not None:
        out += fc.bias.data
    return out


def _layer_norm(ln, x: np.ndarray) -> np.ndarray:
    # Mutates ``x`` (every caller passes an owned temporary); the arithmetic
    # runs in the reference order, so results stay bit-identical while the
    # (B, T, D) intermediates reuse one buffer instead of allocating four.
    dt = x.dtype.type
    inv = dt(1.0 / x.shape[-1])
    mu = x.sum(axis=-1, keepdims=True) * inv
    x -= mu
    var = (x * x).sum(axis=-1, keepdims=True) * inv
    var += dt(ln.eps)
    np.sqrt(var, out=var)
    x /= var
    x *= ln.gamma.data
    x += ln.beta.data
    return x


def _gelu(x: np.ndarray) -> np.ndarray:
    # tanh approximation, evaluated in the reference operation order but
    # with one scratch buffer for the (B, T, 4D) FFN activations.
    dt = x.dtype.type
    inner = x * x
    inner *= x
    inner *= dt(0.044715)
    inner += x
    inner *= dt(_SQRT_2_OVER_PI)
    np.tanh(inner, out=inner)
    inner += dt(1.0)
    inner *= x
    inner *= dt(0.5)
    return inner


def _softmax(x: np.ndarray) -> np.ndarray:
    # In place: attention scores are (B, H, T, T), by far the largest
    # arrays in a forward; callers always hand over a fresh temporary.
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _attention(attn, x: np.ndarray, score_mask: Optional[np.ndarray],
               rows: Optional[np.ndarray] = None) -> np.ndarray:
    """(B, T, D) -> (B, T, D), or (B, 1, D) at query positions ``rows``."""
    batch, seq, _ = x.shape
    heads, d_head = attn.num_heads, attn.d_head

    # One fused (D, 3D) projection instead of three (D, D) GEMMs. The
    # column-blocked GEMM reduces over the same K axis in the same order,
    # so each q/k/v element is bit-identical to its separate projection.
    # With ``rows`` only k/v are fused; q is projected at the rows alone.
    projs = ((attn.q_proj, attn.k_proj, attn.v_proj) if rows is None
             else (attn.k_proj, attn.v_proj))
    fused = x @ np.concatenate([proj.weight.data for proj in projs], axis=1)
    if attn.q_proj.bias is not None:
        fused += np.concatenate([proj.bias.data for proj in projs])

    # (B, T, nD) -> (B, T, n, H, d_head): a pure view of the fused output,
    # so q/k/v never get copied out
    fused = fused.reshape(batch, seq, len(projs), heads, d_head)
    k = fused[:, :, -2].transpose(0, 2, 1, 3)
    v = fused[:, :, -1].transpose(0, 2, 1, 3)
    if rows is None:
        q, tag = fused[:, :, 0].transpose(0, 2, 1, 3), ""
    else:
        q = _linear(attn.q_proj, x[np.arange(batch), rows])
        q, tag = q.reshape(batch, heads, 1, d_head), "_rows"
    q_len = q.shape[2]
    scores = _scratch_buf("scores" + tag, (batch, heads, q_len, seq), x.dtype)
    np.matmul(q, k.transpose(0, 1, 3, 2), out=scores)
    scores *= x.dtype.type(attn.scale)
    if score_mask is not None:
        np.copyto(scores, x.dtype.type(-1e9), where=score_mask)
    weights = _apply_dropout(attn.attn_dropout, _softmax(scores), rows, seq)
    context = _scratch_buf("context" + tag, (batch, heads, q_len, d_head),
                           x.dtype)
    np.matmul(weights, v, out=context)
    context = context.transpose(0, 2, 1, 3)
    return _linear(attn.out_proj, context.reshape(batch, q_len, attn.d_model))


def encoder_hidden(lm, embeds: np.ndarray, pad_mask: Optional[np.ndarray],
                   rows: Optional[np.ndarray] = None) -> np.ndarray:
    """The TransformerEncoder stack on raw arrays: (B, T, D) -> (B, T, D).

    With ``rows`` (B,) the last layer runs only at position ``rows[b]``
    of each sequence and the result is (B, D), as in
    ``TransformerEncoder.forward``.
    """
    # A no-padding batch (length-homogeneous bucket) masks nothing; skip
    # the (B, H, T, T) masked fill entirely in that case.
    score_mask = (pad_mask[:, None, None, :]
                  if pad_mask is not None and pad_mask.any() else None)
    x = embeds
    last = len(lm.encoder.layers) - 1
    for i, layer in enumerate(lm.encoder.layers):
        x = _encoder_layer(layer, x, score_mask, rows if i == last else None)
    return x


def _encoder_layer(layer, x: np.ndarray, score_mask: Optional[np.ndarray],
                   rows: Optional[np.ndarray]) -> np.ndarray:
    seq = x.shape[1]
    attn_out = _apply_dropout(
        layer.dropout, _attention(layer.attention, x, score_mask, rows),
        rows, seq)
    adapter = getattr(layer, "adapter_attn", None)
    if adapter is not None:
        _adapter(adapter, attn_out)
    # residual, in place on the fresh projection output
    attn_out += x if rows is None else x[np.arange(len(rows)), rows][:, None]
    x = _layer_norm(layer.norm1, attn_out)
    ffn = layer.ffn
    ffn_out = _apply_dropout(
        ffn.dropout, _linear(ffn.fc2, _gelu(_linear(ffn.fc1, x))), rows, seq)
    adapter = getattr(layer, "adapter_ffn", None)
    if adapter is not None:
        _adapter(adapter, ffn_out)
    ffn_out += x
    x = _layer_norm(layer.norm2, ffn_out)
    return x if rows is None else x.reshape(len(rows), x.shape[2])


def _adapter(adapter, x: np.ndarray) -> np.ndarray:
    """PEFT bottleneck residual, in place on the owned sublayer output.

    Matches ``repro.core.peft.Adapter.forward`` elementwise: the delta is
    computed from the unmutated input, then added (``_gelu`` mutates only
    the owned down-projection temporary).
    """
    x += _linear(adapter.up, _gelu(_linear(adapter.down, x)))
    return x


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))  # Tensor.sigmoid's op order


def _lstm(lstm, x: np.ndarray) -> np.ndarray:
    """Numpy twin of ``LSTM.forward``: (B, S, I) -> (B, S, H)."""
    cell = lstm.cell
    batch, seq, _ = x.shape
    hs = cell.hidden_size
    h = np.zeros((batch, hs), dtype=get_default_dtype())
    c = np.zeros_like(h)
    out = np.empty((batch, seq, hs), dtype=x.dtype)
    for t in (range(seq - 1, -1, -1) if lstm.reverse else range(seq)):
        gates = x[:, t, :] @ cell.w_ih.data + h @ cell.w_hh.data + cell.bias.data
        i = _sigmoid(gates[:, 0 * hs:1 * hs])
        f = _sigmoid(gates[:, 1 * hs:2 * hs])
        g = np.tanh(gates[:, 2 * hs:3 * hs])
        o = _sigmoid(gates[:, 3 * hs:4 * hs])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[:, t] = h
    return out


def prompt_matrix(encoder) -> np.ndarray:
    """(P, D) continuous prompt vectors, without the autograd graph.

    A P-tuning ``PromptEncoder`` (embeddings -> BiLSTM -> ReLU -> MLP) runs
    through numpy twins of its layers in the reference op order, so the
    result equals ``encoder().data`` bit for bit at a fraction of the
    Tensor path's per-op cost. Any other prompt source (a ``SoftPrompt``,
    a fused tenant stack) already is a plain matrix and is read as is.
    """
    lstm = getattr(encoder, "lstm", None)
    if lstm is None:
        return encoder().data
    seq = encoder.embeddings.data.reshape(1, encoder.num_tokens,
                                          encoder.d_model)
    encoded = np.concatenate(
        (_lstm(lstm.forward_lstm, seq), _lstm(lstm.backward_lstm, seq)),
        axis=-1)
    out = encoded * (encoded > 0)  # relu, as Tensor.relu computes it
    for layer in encoder.mlp.layers:
        out = _linear(layer, out)
    return out.reshape(encoder.num_tokens, encoder.d_model)


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


def _embed(lm, token_vecs: np.ndarray, flags: np.ndarray) -> np.ndarray:
    seq = token_vecs.shape[1]
    x = token_vecs  # fresh gather (or np.where result) owned by the caller
    x += lm.position_embedding.weight.data[:seq]
    x += lm.duplicate_embedding.weight.data[flags]
    return _apply_dropout(lm.embedding_dropout, _layer_norm(lm.embedding_norm, x))


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

    token_vecs = lm.token_embedding.weight.data[ids]
    if model.prompt_encoder is not None and is_prompt.any():
        prompt_vecs = prompt_matrix(model.prompt_encoder)
        gathered = prompt_vecs[prompt_idx.reshape(-1)].reshape(token_vecs.shape)
        token_vecs = np.where(is_prompt[:, :, None], gathered, token_vecs)

    at_mask = encoder_hidden(lm, _embed(lm, token_vecs, flags), pad_mask,
                             rows=mask_positions)  # (B, D)
    h = _layer_norm(lm.mlm_norm, _gelu(_linear(lm.mlm_transform, at_mask)))
    logits = h @ lm.token_embedding.weight.data.T + lm.mlm_bias.data

    probs = _softmax(logits)
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

    token_vecs = lm.token_embedding.weight.data[ids]
    hidden = encoder_hidden(lm, _embed(lm, token_vecs, flags), pad_mask)
    pooled = np.tanh(_linear(lm.pooler, hidden[:, 0, :]))
    pooled = _apply_dropout(model.head_dropout, pooled)
    return _softmax(_linear(model.head, pooled))
