"""Numpy-native distance kernels for the ANN index, in the style of
:mod:`repro.infer.fastpath`.

The candidate-generation hot path is "score one float32 query against many
stored vectors, keep the top-k". Three things make it fast here:

* **int8 symmetric quantization** -- stored vectors are kept as int8 codes
  with one float32 scale per vector (``v ~ codes * scale``), a 4x memory
  cut that keeps 10^7-scale catalogs resident;
* **fused scale-and-dot** -- a query is scored against a *block* of codes
  by casting the block into a recycled per-thread float32 scratch buffer,
  running one GEMM, and folding the per-vector scales into the products in
  place.  The dequantized matrix is never materialized beyond one block;
* **blocked top-k merge** -- candidates stream through a small running
  pool (``top-k`` plus score ties), so the full score vector over the
  catalog never exists in memory.

Tie handling is deliberate: :func:`topk_candidates` returns *every* row
tied at the k-th score, and callers (the index layer) order them by
``(-score, record_id)`` before cutting to ``k`` -- the same deterministic
rule :class:`repro.serve.ServingIndex` uses, so equal scores never reorder
between runs.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..kernels import scratch_buf, topk_candidates

#: rows of int8 codes dequantized per GEMM call; sized so one block of
#: float32 scratch (BLOCK_ROWS x dim) stays comfortably inside L2/L3
BLOCK_ROWS = 8192

# ----------------------------------------------------------------------
# int8 symmetric quantization
# ----------------------------------------------------------------------
def quantize_int8(vectors: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-vector symmetric quantization: ``(N, D) -> (codes, scales)``.

    ``codes`` is int8 in ``[-127, 127]`` and ``scales`` float32 with
    ``vectors ~ codes * scales[:, None]``.  The scale is ``max|v| / 127``
    per vector, so the worst-case per-element error is ``scale / 2`` and a
    dot product against a unit query errs by at most
    ``sqrt(D) * scale / 2`` (see ``docs/BLOCKING.md``).  An all-zero
    vector keeps scale 1.0 and all-zero codes.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    if vectors.ndim != 2:
        raise ValueError(f"expected (N, D) vectors, got shape {vectors.shape}")
    peak = np.abs(vectors).max(axis=1) if vectors.shape[0] else \
        np.zeros(0, dtype=np.float32)
    scales = np.where(peak > 0, peak / 127.0, 1.0).astype(np.float32)
    codes = np.rint(vectors / scales[:, None]).astype(np.int8)
    return codes, scales


def dequantize_int8(codes: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Float32 reconstruction ``codes * scales[:, None]`` (tests, k-means)."""
    return codes.astype(np.float32) * scales[:, None].astype(np.float32)


# ----------------------------------------------------------------------
# Fused scale-and-dot
# ----------------------------------------------------------------------
def fused_scaled_dot(query: np.ndarray, codes: np.ndarray,
                     scales: np.ndarray,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """``(codes * scales[:, None]) @ query`` without the dequantized matrix.

    ``query`` is float32 ``(D,)``; ``codes`` int8 ``(M, D)``; the result is
    float32 ``(M,)``.  Blocks of ``BLOCK_ROWS`` codes are cast into one
    recycled scratch buffer, multiplied by the query, and scaled in place
    -- the float32 copy of the full code matrix never exists.
    """
    query = np.ascontiguousarray(query, dtype=np.float32)
    rows = codes.shape[0]
    if out is None:
        out = np.empty(rows, dtype=np.float32)
    if rows == 0:
        return out
    block = min(rows, BLOCK_ROWS)
    deq = scratch_buf("fused_deq", (block, codes.shape[1]), np.float32)
    for start in range(0, rows, block):
        stop = min(start + block, rows)
        chunk = deq[: stop - start]
        chunk[:] = codes[start:stop]          # int8 -> float32 cast, one pass
        np.matmul(chunk, query, out=out[start:stop])
        out[start:stop] *= scales[start:stop]  # fused per-vector rescale
    return out


def gather_scaled_dot(query: np.ndarray, codes: np.ndarray,
                      scales: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Fused scale-and-dot over a row subset (the IVF probe kernel).

    The gather and the cast happen in one pass: ``scratch[:m] = codes[rows]``
    both selects the probed rows and widens them to float32 without an
    intermediate int8 copy.
    """
    query = np.ascontiguousarray(query, dtype=np.float32)
    m = len(rows)
    out = np.empty(m, dtype=np.float32)
    if m == 0:
        return out
    block = min(m, BLOCK_ROWS)
    deq = scratch_buf("gather_deq", (block, codes.shape[1]), np.float32)
    for start in range(0, m, block):
        stop = min(start + block, m)
        chunk = deq[: stop - start]
        chunk[:] = codes[rows[start:stop]]    # gather + cast, one pass
        np.matmul(chunk, query, out=out[start:stop])
        out[start:stop] *= scales[rows[start:stop]]
    return out


# ----------------------------------------------------------------------
# Blocked top-k merge
# ----------------------------------------------------------------------
def blocked_topk_dot(query: np.ndarray, codes: np.ndarray,
                     scales: np.ndarray, k: int,
                     rows: Optional[np.ndarray] = None
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Top-k fused int8 scoring that never holds the full score vector.

    Streams ``codes`` (optionally restricted to ``rows``) through
    block-sized fused dots, keeping a running candidate pool of at most
    ``k`` rows plus ties.  Returns ``(pool_rows, pool_scores)`` --
    unordered, possibly longer than ``k`` when the k-th score is tied.
    """
    if rows is None:
        rows = np.arange(codes.shape[0])
    rows = np.asarray(rows, dtype=np.int64)
    pool_rows = np.empty(0, dtype=np.int64)
    pool_scores = np.empty(0, dtype=np.float32)
    for start in range(0, len(rows), BLOCK_ROWS):
        chunk = rows[start:start + BLOCK_ROWS]
        scores = gather_scaled_dot(query, codes, scales, chunk)
        keep = topk_candidates(scores, k)
        pool_rows = np.concatenate([pool_rows, chunk[keep]])
        pool_scores = np.concatenate([pool_scores, scores[keep]])
        if len(pool_rows) > k:
            keep = topk_candidates(pool_scores, k)
            pool_rows, pool_scores = pool_rows[keep], pool_scores[keep]
    return pool_rows, pool_scores


def exact_topk_dot(query: np.ndarray, vectors: np.ndarray, k: int
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Blocked float32 exact top-k (``rows, scores``; ties included).

    The reference the ANN recall bookkeeping compares against: same
    blocked streaming as the int8 path, full float32 precision.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    query = np.ascontiguousarray(query, dtype=np.float32)
    pool_rows = np.empty(0, dtype=np.int64)
    pool_scores = np.empty(0, dtype=np.float32)
    for start in range(0, vectors.shape[0], BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, vectors.shape[0])
        scores = vectors[start:stop] @ query
        keep = topk_candidates(scores, k)
        pool_rows = np.concatenate([pool_rows, keep + start])
        pool_scores = np.concatenate(
            [pool_scores, scores[keep].astype(np.float32, copy=False)])
        if len(pool_rows) > k:
            keep = topk_candidates(pool_scores, k)
            pool_rows, pool_scores = pool_rows[keep], pool_scores[keep]
    return pool_rows, pool_scores
