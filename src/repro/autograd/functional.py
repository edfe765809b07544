"""Neural-network functional operations built on :class:`~repro.autograd.tensor.Tensor`.

These are the activation, normalization and loss primitives that the MiniLM
encoder, the prompt verbalizer and every baseline matcher share.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor, get_default_dtype, where

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))
_GELU_C = 0.044715


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as used by BERT).

    A single fused graph node: the seed implementation composed seven
    elementwise Tensor ops (each allocating an intermediate array and a
    backward closure); this computes the same forward in raw numpy and
    backpropagates through the closed-form derivative in one pass.
    """
    data = x.data
    inner = (data + (data * data * data) * _GELU_C) * _SQRT_2_OVER_PI
    t = np.tanh(inner)

    def backward(out: Tensor) -> None:
        d_inner = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_C * data * data)
        x._accumulate(out.grad * (0.5 * (1.0 + t)
                                  + 0.5 * data * (1.0 - t * t) * d_inner))

    return Tensor._make(data * (t + 1.0) * 0.5, (x,), backward)


def relu(x: Tensor) -> Tensor:
    return x.relu()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace positions where ``mask`` is True with ``value``."""
    return where(np.asarray(mask, dtype=bool), Tensor(np.full(x.shape, value)), x)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis as one fused graph node.

    Forward matches the composed ``(x - mu) / sqrt(var + eps) * gamma +
    beta`` chain bit-for-bit (means computed as ``sum * (1/n)``, like
    :meth:`Tensor.mean`); backward applies the closed-form LayerNorm
    gradient instead of unwinding ~10 recorded elementwise ops.
    """
    data = x.data
    n = data.shape[-1]
    inv_n = 1.0 / n
    mu = data.sum(axis=-1, keepdims=True) * inv_n
    centered = data - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt(var + eps)
    normed = centered / std
    out_data = normed * gamma.data + beta.data

    def backward(out: Tensor) -> None:
        grad = out.grad
        if beta.requires_grad:
            beta._accumulate(grad.reshape(-1, n).sum(axis=0))
        if gamma.requires_grad:
            gamma._accumulate((grad * normed).reshape(-1, n).sum(axis=0))
        if x.requires_grad:
            gx = grad * gamma.data
            mean_gx = gx.sum(axis=-1, keepdims=True) * inv_n
            mean_gx_normed = (gx * normed).sum(axis=-1, keepdims=True) * inv_n
            x._accumulate((gx - mean_gx - normed * mean_gx_normed) / std)

    return Tensor._make(out_data, (x, gamma, beta), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  ignore_index: Optional[int] = None,
                  sample_weights: Optional[np.ndarray] = None) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and integer ``targets`` (N,).

    ``ignore_index`` positions contribute zero loss (used by MLM pre-training
    where unmasked positions carry a sentinel target). ``sample_weights``
    rescales per-sample losses (used by Rotom's meta-weighting).

    The op is a single fused graph node: softmax and the negative
    log-likelihood are computed together in raw numpy, and the backward
    applies the closed-form gradient (softmax minus one-hot, per-row
    weighted) in one pass instead of unwinding a ``log_softmax`` +
    gather + reduction chain.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"expected 2-d logits, got shape {logits.shape}")
    n = logits.shape[0]
    x = logits.data

    if ignore_index is not None:
        keep = targets != ignore_index
    else:
        keep = np.ones(n, dtype=bool)
    if not keep.any():
        return Tensor(0.0, requires_grad=logits.requires_grad)

    rows = np.nonzero(keep)[0]
    full = len(rows) == n
    kept_x = x if full else x[rows]
    kept_targets = targets if full else targets[rows]
    shifted = kept_x - kept_x.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    z = exps.sum(axis=-1, keepdims=True)
    picked = shifted[np.arange(len(rows)), kept_targets] - np.log(z[:, 0])

    if sample_weights is not None:
        weights = np.asarray(sample_weights, dtype=np.float64)[rows]
        total = weights.sum()
        if total <= 0:
            return Tensor(0.0, requires_grad=logits.requires_grad)
        coeff = (weights / total).astype(x.dtype)
        value = -float(np.dot(picked.astype(np.float64), weights)) / total
    else:
        coeff = np.full(len(rows), 1.0 / len(rows), dtype=x.dtype)
        value = -picked.sum() / len(rows)

    def backward(out: Tensor) -> None:
        grad_rows = exps / z
        grad_rows[np.arange(len(rows)), kept_targets] -= 1.0
        grad_rows *= (out.grad * coeff)[:, None]
        if full:
            logits._accumulate(grad_rows)
        else:
            grad = np.zeros_like(x)
            grad[rows] = grad_rows
            logits._accumulate(grad)

    return Tensor._make(np.asarray(value, dtype=x.dtype), (logits,), backward)


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer targets under ``log_probs``."""
    targets = np.asarray(targets, dtype=np.int64)
    rows = np.arange(log_probs.shape[0])
    return -log_probs[rows, targets].mean()


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean BCE between scalar logits (N,) and binary targets (N,)."""
    targets_t = Tensor(np.asarray(targets, dtype=np.float64))
    # log(1 + exp(-|x|)) + max(x, 0) - x*y, the numerically stable form.
    abs_logits = logits.abs()
    loss = (1.0 + (-abs_logits).exp()).log() + logits.relu() - logits * targets_t
    return loss.mean()


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    diff = pred - Tensor(np.asarray(target, dtype=np.float64))
    return (diff * diff).mean()


def scaled_keep_mask(uniform: np.ndarray, p: float, dtype) -> np.ndarray:
    """Inverted-dropout mask in ``dtype``: ``1/(1-p)`` where kept, else 0.

    Built directly in the target dtype (``1 * s`` and ``0 * s`` are exact),
    so it equals, bit for bit, the float64 ``(uniform >= p) / (1 - p)``
    cast to ``dtype``, without the float64 intermediate. A multiply beats
    ``np.where`` with scalar branches by about 3x here.
    """
    scale = np.dtype(dtype).type(1.0 / (1.0 - p))
    return np.multiply(uniform >= p, scale, dtype=dtype)


def dropout(x: Tensor, p: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when not ``training`` or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    rng = rng if rng is not None else np.random.default_rng()
    mask = scaled_keep_mask(rng.random(x.shape), p, get_default_dtype())
    return x * Tensor(mask)


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` (V, D) according to integer ``indices``."""
    indices = np.asarray(indices, dtype=np.int64)
    return weight[indices]


def attention_scores_mask(pad_mask: np.ndarray) -> np.ndarray:
    """Expand a (B, T) padding mask to a (B, 1, 1, T) attention mask.

    True marks *padding* positions that must not be attended to.
    """
    pad_mask = np.asarray(pad_mask, dtype=bool)
    return pad_mask[:, None, None, :]
