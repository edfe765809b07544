"""The model's hot blocks as raw-numpy kernels and one graph node each.

The embedding block (token gather, prompt splice, positions, duplicate
flags, LayerNorm, dropout), each transformer encoder layer (attention, FFN,
both LayerNorms, three dropouts, optional PEFT adapters) and each LSTM
direction exist once, as the kernels in this module:

* **no-grad inference** (:mod:`repro.infer.fastpath`) calls a kernel with
  ``tape=None``: it runs in place on owned temporaries and recycles
  per-thread scratch buffers for the attention products;
* **training** goes through :func:`embedding_node`,
  :func:`encoder_layer_node` and :func:`lstm_node`: the same kernel appends
  the activations its backward reads to a ``tape`` list, and the result is
  one :class:`~repro.autograd.tensor.Tensor` node whose backward walks that
  tape in reverse.

Each backward is written by hand and repeats, op for op, the float32
arithmetic of the per-op graph these blocks used to record (kept as the
test reference in ``tests/autograd/reference_graph.py``), so every
gradient is bit-identical to it:

* weight grads are batched ``swapaxes(a, -1, -2) @ g`` summed over the
  batch axis and bias grads ``g.sum(axis=(0, 1))`` (``Tensor._accumulate``
  unbroadcasts both), and every grad that feeds a matmul or a reduction is
  C-contiguous, as the graph's gradient copies are;
* where one tensor takes three or more grad terms they are added in the
  graph's order: a layer's input takes the residual, then q, then k, then
  v (with ``rows``, the two row scatters first); LSTM weights take the
  step computed last first;
* the softmax backward follows the graph's div/sum/exp chain, and the
  embedding tables' scatters become row sums in ``np.add.at``'s order
  (the token table keeps ``np.add.at``);
* dropout masks come from the same ``Dropout.keep_mask`` calls in the same
  order, so every generator ends where the graph would leave it.

Nothing is computed for a frozen parameter or for a grad whose only
consumer is a constant (the graph formed and discarded those products).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..kernels import scratch_buf
from .tensor import Tensor, get_default_dtype, is_grad_enabled

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))
_GELU_C = 0.044715


# ----------------------------------------------------------------------
# Elementwise kernels and their hand-written backwards
# ----------------------------------------------------------------------
def linear(fc, x: np.ndarray) -> np.ndarray:
    """``x @ W + b`` into a fresh array."""
    out = x @ fc.weight.data
    if fc.bias is not None:
        out += fc.bias.data
    return out


def linear_backward(fc, x: np.ndarray, g: np.ndarray,
                    want_x: bool) -> Optional[np.ndarray]:
    """Accumulate ``fc``'s parameter grads from the C-contiguous output
    grad ``g``; return the input grad when ``want_x``."""
    if fc.bias is not None and fc.bias.requires_grad:
        fc.bias._accumulate(g)
    if fc.weight.requires_grad:
        fc.weight._accumulate(np.swapaxes(x, -1, -2) @ g)
    return g @ np.swapaxes(fc.weight.data, -1, -2) if want_x else None


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               eps: float, tape: Optional[list] = None) -> np.ndarray:
    """LayerNorm over the last axis, in place on the owned ``x``.

    Means are ``sum * (1/n)``, as ``Tensor.mean`` computes them. With a
    ``tape`` the normalized values and the standard deviation are kept.
    """
    dt = x.dtype.type
    inv = dt(1.0 / x.shape[-1])
    mu = x.sum(axis=-1, keepdims=True) * inv
    x -= mu
    var = (x * x).sum(axis=-1, keepdims=True) * inv
    var += dt(eps)
    np.sqrt(var, out=var)
    x /= var
    if tape is not None:
        tape.append((x.copy(), var))
    x *= gamma
    x += beta
    return x


def layer_norm_backward(saved, g: np.ndarray, gamma, beta,
                        want_x: bool) -> Optional[np.ndarray]:
    """Closed-form LayerNorm grads for the ``(normed, std)`` a
    :func:`layer_norm` tape kept; ``gamma``/``beta`` are Tensors."""
    normed, std = saved
    n = g.shape[-1]
    inv_n = 1.0 / n
    if beta.requires_grad:
        beta._accumulate(g.reshape(-1, n).sum(axis=0))
    if gamma.requires_grad:
        gamma._accumulate((g * normed).reshape(-1, n).sum(axis=0))
    if not want_x:
        return None
    gx = g * gamma.data
    mean_gx = gx.sum(axis=-1, keepdims=True) * inv_n
    mean_gx_normed = (gx * normed).sum(axis=-1, keepdims=True) * inv_n
    return (gx - mean_gx - normed * mean_gx_normed) / std


def gelu(x: np.ndarray, tape: Optional[list] = None) -> np.ndarray:
    """GELU (tanh approximation) into a fresh array; ``x`` is unchanged.
    With a ``tape`` the input and the tanh are kept."""
    dt = x.dtype.type
    inner = x * x
    inner *= x
    inner *= dt(_GELU_C)
    inner += x
    inner *= dt(_SQRT_2_OVER_PI)
    np.tanh(inner, out=inner)
    if tape is not None:
        tape.append((x, inner))
        inner = inner + dt(1.0)
    else:
        inner += dt(1.0)
    inner *= x
    inner *= dt(0.5)
    return inner


def gelu_backward(saved, g: np.ndarray) -> np.ndarray:
    """``g * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * d_inner)`` with
    ``d_inner = c1 * (1 + 3 * c2 * x * x)``, in that operation order, on
    three owned temporaries."""
    data, t = saved
    dt = data.dtype.type
    d_inner = data * dt(3.0 * _GELU_C)
    d_inner *= data
    d_inner += dt(1.0)
    d_inner *= dt(_SQRT_2_OVER_PI)
    tmp = t * t
    np.subtract(dt(1.0), tmp, out=tmp)
    slope = data * dt(0.5)
    slope *= tmp
    slope *= d_inner
    np.add(t, dt(1.0), out=tmp)
    tmp *= dt(0.5)
    tmp += slope
    tmp *= g
    return tmp


def softmax(x: np.ndarray, tape: Optional[list] = None) -> np.ndarray:
    """Softmax over the last axis, in place on the owned ``x`` (into a
    fresh array with a ``tape``, which keeps the exponentials and sums).

    The row max takes ``initial=-inf``: the same exact values (NaN still
    propagates) from numpy's cheaper reduction loop."""
    x -= np.max(x, axis=-1, keepdims=True, initial=-np.inf)
    np.exp(x, out=x)
    total = x.sum(axis=-1, keepdims=True)
    if tape is not None:
        tape.append((x, total))
        return x / total
    x /= total
    return x


def softmax_backward(saved, g: np.ndarray) -> np.ndarray:
    """The graph's ``exp / exp.sum()`` chain: the quotient's two grads,
    then the exponential's."""
    e, total = saved
    d_total = np.negative(g)
    d_total *= e
    d_total /= total ** 2
    gx = g / total
    gx += d_total.sum(axis=-1, keepdims=True)
    gx *= e
    return gx


def dropout(module, x: np.ndarray, rows: Optional[np.ndarray] = None,
            seq_len: Optional[int] = None,
            tape: Optional[list] = None) -> np.ndarray:
    """``module``'s inverted dropout, in place on the owned ``x``; the mask
    is ``Dropout.keep_mask``'s (see there for ``rows``/``seq_len``)."""
    mask = module.keep_mask(x.shape, x.dtype, rows, seq_len)
    if mask is not None:
        x *= mask
    if tape is not None:
        tape.append(mask)
    return x


def dropout_backward(mask: Optional[np.ndarray], g: np.ndarray) -> np.ndarray:
    return g if mask is None else g * mask


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))  # Tensor.sigmoid's op order


def _trainable(module) -> bool:
    return module is not None and any(
        param.requires_grad for param in module.parameters())


def _norm(ln, x: np.ndarray, tape: Optional[list]) -> np.ndarray:
    return layer_norm(x, ln.gamma.data, ln.beta.data, ln.eps, tape)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(B, H, T, Dh) -> C-contiguous (B, T, H * Dh)."""
    batch, heads, seq, d_head = a.shape
    return np.ascontiguousarray(a.transpose(0, 2, 1, 3)).reshape(
        batch, seq, heads * d_head)


def _recording(parents) -> bool:
    return is_grad_enabled() and any(p.requires_grad for p in parents)


def score_mask(pad_mask: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """(B, 1, 1, T) key mask, or None when nothing is padded."""
    if pad_mask is None or not pad_mask.any():
        return None
    return pad_mask[:, None, None, :]


# ----------------------------------------------------------------------
# Encoder layer
# ----------------------------------------------------------------------
def attention(attn, x: np.ndarray, mask: Optional[np.ndarray],
              rows: Optional[np.ndarray] = None,
              tape: Optional[list] = None) -> np.ndarray:
    """(B, T, D) -> (B, T, D), or (B, 1, D) at query positions ``rows``."""
    batch, seq, _ = x.shape
    heads, d_head = attn.num_heads, attn.d_head

    # One fused (D, 3D) projection instead of three (D, D) GEMMs. The
    # column-blocked GEMM reduces over the same K axis in the same order,
    # so each q/k/v element is bit-identical to its separate projection.
    # With ``rows`` only k/v are fused; q is projected at the rows alone,
    # as a (B, 1, D) GEMM like the per-op graph's.
    projs = ((attn.q_proj, attn.k_proj, attn.v_proj) if rows is None
             else (attn.k_proj, attn.v_proj))
    fused = x @ np.concatenate([proj.weight.data for proj in projs], axis=1)
    if attn.q_proj.bias is not None:
        fused += np.concatenate([proj.bias.data for proj in projs])
    # (B, T, nD) -> (B, T, n, H, d_head): q/k/v are views, never copied
    fused = fused.reshape(batch, seq, len(projs), heads, d_head)
    k = fused[:, :, -2].transpose(0, 2, 1, 3)
    v = fused[:, :, -1].transpose(0, 2, 1, 3)
    if rows is None:
        queries, tag = x, ""
        q = fused[:, :, 0].transpose(0, 2, 1, 3)
    else:
        queries, tag = x[np.arange(batch), rows].reshape(batch, 1, -1), "_rows"
        q = linear(attn.q_proj, queries).reshape(
            batch, 1, heads, d_head).transpose(0, 2, 1, 3)
    q_len = q.shape[2]
    shape = (batch, heads, q_len, seq)
    scores = (np.empty(shape, x.dtype) if tape is not None
              else scratch_buf("scores" + tag, shape, x.dtype))
    np.matmul(q, k.transpose(0, 1, 3, 2), out=scores)
    scores *= x.dtype.type(attn.scale)
    if mask is not None:
        np.copyto(scores, x.dtype.type(-1e9), where=mask)
    weights = dropout(attn.attn_dropout, softmax(scores, tape), rows, seq,
                      tape)
    shape = (batch, heads, q_len, d_head)
    context = (np.empty(shape, x.dtype) if tape is not None
               else scratch_buf("context" + tag, shape, x.dtype))
    np.matmul(weights, v, out=context)
    context = context.transpose(0, 2, 1, 3).reshape(batch, q_len, attn.d_model)
    if tape is not None:
        tape.append((queries, q, k, v, weights, context))
    return linear(attn.out_proj, context)


def attention_backward(attn, x: Tensor, rec, g: np.ndarray,
                       mask: Optional[np.ndarray]) -> list:
    """Grads of the attention's three input projections, ``[q, k, v]``
    (None where the graph would not need one); parameter grads are
    accumulated on the way."""
    queries, q, k, v, weights, context = next(rec)
    attn_mask, soft = next(rec), next(rec)
    want_x = x.requires_grad
    need = [want_x or _trainable(proj)
            for proj in (attn.q_proj, attn.k_proj, attn.v_proj)]
    need_weights = need[0] or need[1]
    d_context = linear_backward(attn.out_proj, context, g,
                                need_weights or need[2])
    grads: List[Optional[np.ndarray]] = [None, None, None]
    if d_context is None:
        return grads
    batch, q_len = g.shape[0], g.shape[1]
    d_context = np.ascontiguousarray(d_context.reshape(
        batch, q_len, attn.num_heads, attn.d_head).transpose(0, 2, 1, 3))
    if need_weights:
        d_scores = softmax_backward(soft, dropout_backward(
            attn_mask, d_context @ np.swapaxes(v, -1, -2)))
        if mask is not None:
            d_scores *= ~mask
        d_scores *= x.data.dtype.type(attn.scale)
        if need[0]:
            grads[0] = linear_backward(attn.q_proj, queries,
                                       _merge_heads(d_scores @ k), want_x)
        if need[1]:
            d_keys = (np.swapaxes(q, -1, -2) @ d_scores).transpose(0, 1, 3, 2)
            grads[1] = linear_backward(attn.k_proj, x.data,
                                       _merge_heads(d_keys), want_x)
    if need[2]:
        d_values = np.swapaxes(weights, -1, -2) @ d_context
        grads[2] = linear_backward(attn.v_proj, x.data,
                                   _merge_heads(d_values), want_x)
    return grads


def adapter(module, x: np.ndarray, tape: Optional[list] = None) -> np.ndarray:
    """PEFT bottleneck residual ``x + up(gelu(down(x)))``, in place on the
    owned ``x`` unless a ``tape`` keeps it; None passes ``x`` through."""
    if module is None:
        return x
    h = gelu(linear(module.down, x), tape)
    delta = linear(module.up, h)
    if tape is None:
        x += delta
        return x
    tape.append((x, h))
    return x + delta


def adapter_backward(module, rec, g: np.ndarray,
                     want_x: bool) -> Optional[np.ndarray]:
    if module is None:
        return g
    x, h = next(rec)
    d_h = linear_backward(module.up, h, g, want_x or _trainable(module.down))
    saved = next(rec)
    if d_h is None:
        return None
    d_x = linear_backward(module.down, x, gelu_backward(saved, d_h), want_x)
    return None if d_x is None else g + d_x


def feed_forward(ffn, x: np.ndarray, rows: Optional[np.ndarray], seq_len: int,
                 tape: Optional[list] = None) -> np.ndarray:
    h = gelu(linear(ffn.fc1, x), tape)
    out = dropout(ffn.dropout, linear(ffn.fc2, h), rows, seq_len, tape)
    if tape is not None:
        tape.append((x, h))
    return out


def feed_forward_backward(ffn, rec, g: np.ndarray,
                          want_x: bool) -> Optional[np.ndarray]:
    x, h = next(rec)
    g = dropout_backward(next(rec), g)
    d_h = linear_backward(ffn.fc2, h, g, want_x or _trainable(ffn.fc1))
    saved = next(rec)
    if d_h is None:
        return None
    return linear_backward(ffn.fc1, x, gelu_backward(saved, d_h), want_x)


def encoder_layer(layer, x: np.ndarray, mask: Optional[np.ndarray],
                  rows: Optional[np.ndarray] = None,
                  tape: Optional[list] = None) -> np.ndarray:
    """One TransformerEncoderLayer: (B, T, D) -> (B, T, D), or (B, D) at
    positions ``rows`` (B,).

    ``mask`` is :func:`score_mask`'s. With ``rows`` only keys and values
    see every position; the query, attention output, residuals, both
    LayerNorms and the FFN run on one position per sequence, and each
    dropout keeps the draws the full layer would make there (same
    generator states afterwards). ``x`` is never written.
    """
    seq = x.shape[1]
    out = dropout(layer.dropout, attention(layer.attention, x, mask, rows,
                                           tape), rows, seq, tape)
    out = adapter(getattr(layer, "adapter_attn", None), out, tape)
    out += x if rows is None else x[np.arange(len(rows)), rows][:, None]
    hidden = _norm(layer.norm1, out, tape)
    out = feed_forward(layer.ffn, hidden, rows, seq, tape)
    out = adapter(getattr(layer, "adapter_ffn", None), out, tape)
    out += hidden
    out = _norm(layer.norm2, out, tape)
    return out if rows is None else out.reshape(len(rows), out.shape[2])


def encoder_layer_backward(layer, x: Tensor, tape: list, g: np.ndarray,
                           mask: Optional[np.ndarray],
                           rows: Optional[np.ndarray]) -> None:
    rec = reversed(tape)
    if rows is not None:
        g = g.reshape(g.shape[0], 1, g.shape[1])
    attn_adapter = getattr(layer, "adapter_attn", None)
    ffn_adapter = getattr(layer, "adapter_ffn", None)
    # which intermediates require grad, as the graph's forward decides it
    # (each flag implies the next, so the walk stops at the first False)
    needs_attn = x.requires_grad or _trainable(layer.attention)
    needs_sum1 = needs_attn or _trainable(attn_adapter)
    needs_hidden = needs_sum1 or _trainable(layer.norm1)
    needs_ffn = needs_hidden or _trainable(layer.ffn)
    needs_sum2 = needs_ffn or _trainable(ffn_adapter)

    d_sum2 = layer_norm_backward(next(rec), g, layer.norm2.gamma,
                                 layer.norm2.beta, needs_sum2)
    if not needs_sum2:
        return
    d_ffn = adapter_backward(ffn_adapter, rec, d_sum2, needs_ffn)
    if not needs_ffn:
        return
    d_hidden = feed_forward_backward(layer.ffn, rec, d_ffn, needs_hidden)
    if not needs_hidden:
        return
    d_sum1 = layer_norm_backward(next(rec), d_sum2 + d_hidden,
                                 layer.norm1.gamma, layer.norm1.beta,
                                 needs_sum1)
    if not needs_sum1:
        return
    d_attn = adapter_backward(attn_adapter, rec, d_sum1, needs_attn)
    if not needs_attn:
        return
    d_q, d_k, d_v = attention_backward(
        layer.attention, x, rec, dropout_backward(next(rec), d_attn), mask)
    if not x.requires_grad:
        return
    if rows is None:
        x._accumulate(d_sum1)
        x._accumulate(d_q)
    else:
        rowed = np.zeros_like(x.data)
        rowed[np.arange(len(rows)), rows] = d_sum1[:, 0] + d_q[:, 0]
        x._accumulate(rowed)
    x._accumulate(d_k)
    x._accumulate(d_v)


def encoder_layer_node(layer, x: Tensor, pad_mask: Optional[np.ndarray] = None,
                       rows: Optional[np.ndarray] = None) -> Tensor:
    """:func:`encoder_layer` as one graph node."""
    mask = score_mask(pad_mask)
    parents = (x, *layer.parameters())
    if not _recording(parents):
        return Tensor(encoder_layer(layer, x.data, mask, rows))
    tape: list = []
    out = encoder_layer(layer, x.data, mask, rows, tape)
    return Tensor._make(out, parents, lambda node: encoder_layer_backward(
        layer, x, tape, node.grad, mask, rows))


def attention_node(attn, x: Tensor, pad_mask: Optional[np.ndarray] = None,
                   rows: Optional[np.ndarray] = None) -> Tensor:
    """:func:`attention` alone as one graph node."""
    mask = score_mask(pad_mask)
    parents = (x, *attn.parameters())
    if not _recording(parents):
        return Tensor(attention(attn, x.data, mask, rows))
    tape: list = []
    out = attention(attn, x.data, mask, rows, tape)

    def backward(node: Tensor) -> None:
        d_q, d_k, d_v = attention_backward(attn, x, reversed(tape),
                                           node.grad, mask)
        if not x.requires_grad:
            return
        if rows is not None:
            d_q, rowed = np.zeros_like(x.data), d_q
            d_q[np.arange(len(rows)), rows] = rowed[:, 0]
        for grad in (d_q, d_k, d_v):
            x._accumulate(grad)

    return Tensor._make(out, parents, backward)


# ----------------------------------------------------------------------
# Embedding block
# ----------------------------------------------------------------------
def embed(lm, ids: np.ndarray, flags: np.ndarray,
          prompt: Optional[np.ndarray] = None,
          is_prompt: Optional[np.ndarray] = None,
          prompt_idx: Optional[np.ndarray] = None,
          tape: Optional[list] = None) -> np.ndarray:
    """(B, T) ids -> (B, T, D) embeddings.

    Token vectors, with continuous prompt slot ``is_prompt[b, t]`` taking
    row ``prompt_idx[b, t]`` of the (P, D) ``prompt`` when one is given,
    plus positions and duplicate flags, then LayerNorm and dropout.
    """
    x = lm.token_embedding.weight.data[ids]
    if prompt is not None:
        gathered = prompt[prompt_idx.reshape(-1)].reshape(x.shape)
        x = np.where(is_prompt[:, :, None], gathered, x)
    x += lm.position_embedding.weight.data[:ids.shape[1]]
    x += lm.duplicate_embedding.weight.data[flags]
    return dropout(lm.embedding_dropout, _norm(lm.embedding_norm, x, tape),
                   tape=tape)


def embedding_node(lm, ids: np.ndarray, flags: np.ndarray,
                   prompt: Optional[Tensor] = None,
                   is_prompt: Optional[np.ndarray] = None,
                   prompt_idx: Optional[np.ndarray] = None) -> Tensor:
    """:func:`embed` as one graph node (``prompt`` is a Tensor here)."""
    tables = (lm.token_embedding.weight, lm.position_embedding.weight,
              lm.duplicate_embedding.weight)
    norm = lm.embedding_norm
    parents = tables + (norm.gamma, norm.beta) + (
        () if prompt is None else (prompt,))
    raw = None if prompt is None else prompt.data
    if not _recording(parents):
        return Tensor(embed(lm, ids, flags, raw, is_prompt, prompt_idx))
    tape: list = []
    out = embed(lm, ids, flags, raw, is_prompt, prompt_idx, tape)

    def backward(node: Tensor) -> None:
        saved, mask = tape
        tokens, positions, duplicates = tables
        want = any(t.requires_grad for t in tables) or (
            prompt is not None and prompt.requires_grad)
        g = layer_norm_backward(saved, dropout_backward(mask, node.grad),
                                norm.gamma, norm.beta, want)
        if not want:
            return
        # np.add.at's sequential order, as row sums: positions sum over
        # the batch, flags and prompt slots over their rows in (b, t) order
        if duplicates.requires_grad:
            grad = np.zeros_like(duplicates.data)
            for flag in range(len(grad)):
                picked = flags == flag
                if picked.any():
                    grad[flag] = g[picked].sum(axis=0)
            duplicates._accumulate(grad)
        if positions.requires_grad:
            grad = np.zeros_like(positions.data)
            grad[:ids.shape[1]] = g.sum(axis=0)
            positions._accumulate(grad)
        if tokens.requires_grad:
            grad = np.zeros_like(tokens.data)
            np.add.at(grad, ids, g if prompt is None
                      else g * ~is_prompt[:, :, None])
            tokens._accumulate(grad)
        if prompt is not None and prompt.requires_grad:
            picked, slots = g[is_prompt], prompt_idx[is_prompt]
            grad = np.zeros_like(prompt.data)
            for slot in np.unique(slots):
                grad[slot] = picked[slots == slot].sum(axis=0)
            prompt._accumulate(grad)

    return Tensor._make(out, parents, backward)


# ----------------------------------------------------------------------
# LSTM direction
# ----------------------------------------------------------------------
def _steps(lstm, seq: int) -> range:
    return range(seq - 1, -1, -1) if lstm.reverse else range(seq)


def lstm(module, x: np.ndarray, tape: Optional[list] = None) -> np.ndarray:
    """One LSTM direction: (B, S, I) -> (B, S, H)."""
    cell = module.cell
    batch, seq, _ = x.shape
    hs = cell.hidden_size
    h = np.zeros((batch, hs), dtype=get_default_dtype())
    c = np.zeros_like(h)
    out = np.empty((batch, seq, hs), dtype=x.dtype)
    for t in _steps(module, seq):
        gates = x[:, t, :] @ cell.w_ih.data + h @ cell.w_hh.data + cell.bias.data
        i = _sigmoid(gates[:, 0 * hs:1 * hs])
        f = _sigmoid(gates[:, 1 * hs:2 * hs])
        g = np.tanh(gates[:, 2 * hs:3 * hs])
        o = _sigmoid(gates[:, 3 * hs:4 * hs])
        state = (h, c)
        c = f * c + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        if tape is not None:
            tape.append((*state, i, f, g, o, tanh_c))
        out[:, t] = h
    return out


def lstm_backward(module, x: Tensor, tape: list, grad: np.ndarray) -> None:
    """Backpropagation through time over the kept steps; each weight takes
    one grad term per step, the step computed last first."""
    cell = module.cell
    w_ih, w_hh, bias = cell.w_ih, cell.w_hh, cell.bias
    hs = cell.hidden_size
    rec = reversed(tape)
    d_x = np.zeros_like(x.data) if x.requires_grad else None
    d_h = d_c = None
    steps = _steps(module, x.shape[1])
    for t in reversed(steps):
        h_prev, c_prev, i, f, g, o, tanh_c = next(rec)
        d_out = grad[:, t] if d_h is None else grad[:, t] + d_h
        d_cell = d_out * o * (1.0 - tanh_c ** 2)
        if d_c is not None:
            d_cell += d_c
        d_gates = np.empty((len(i), 4 * hs), dtype=i.dtype)
        d_gates[:, 0 * hs:1 * hs] = d_cell * g * i * (1.0 - i)
        d_gates[:, 1 * hs:2 * hs] = d_cell * c_prev * f * (1.0 - f)
        d_gates[:, 2 * hs:3 * hs] = d_cell * i * (1.0 - g ** 2)
        d_gates[:, 3 * hs:4 * hs] = d_out * tanh_c * o * (1.0 - o)
        if bias.requires_grad:
            bias._accumulate(d_gates)
        if w_ih.requires_grad:
            w_ih._accumulate(np.swapaxes(x.data[:, t, :], -1, -2) @ d_gates)
        if w_hh.requires_grad:
            w_hh._accumulate(np.swapaxes(h_prev, -1, -2) @ d_gates)
        if d_x is not None:
            d_x[:, t] = d_gates @ np.swapaxes(w_ih.data, -1, -2)
        if t != steps[0]:  # the first step's state is the constant zeros
            d_h = d_gates @ np.swapaxes(w_hh.data, -1, -2)
            d_c = d_cell * f
    if d_x is not None:
        x._accumulate(d_x)


def lstm_node(module, x: Tensor) -> Tensor:
    """:func:`lstm` as one graph node."""
    parents = (x, *module.parameters())
    if not _recording(parents):
        return Tensor(lstm(module, x.data))
    tape: list = []
    out = lstm(module, x.data, tape)
    return Tensor._make(out, parents, lambda node: lstm_backward(
        module, x, tape, node.grad))
