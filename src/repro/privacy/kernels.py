"""Packed-uint64 popcount and Dice kernels for CLK Bloom filters.

A CLK (cryptographic long-term key) is a fixed-length Bloom filter packed
64 bits per ``uint64`` word.  The PPRL hot path is "score one query filter
against many stored filters, keep the top-k by Dice"; three things make it
fast here, mirroring :mod:`repro.ann.kernels`:

* **bit-twiddling popcount** -- per-word population counts come from the
  branch-free SWAR ladder (mask-add halves, then the ``* 0x0101..`` fold),
  four vectorized integer ops per word instead of a Python loop over bits.
  A 256-entry byte-LUT variant (:func:`popcount_bytes`) cross-checks it;
* **fused AND-popcount Dice** -- a query is scored against a *block* of
  packed filters by ANDing into a recycled per-thread scratch buffer,
  popcounting in place, and folding the precomputed per-filter weights
  into ``2|A∩B| / (|A| + |B|)`` without materializing intermediates past
  one block;
* **blocked top-k merge** -- candidates stream through a small running
  pool (top-k plus score ties), so the full score vector over the catalog
  never exists in memory.

Tie handling is identical to the ANN path: :func:`topk_candidates` returns
*every* row tied at the k-th score and callers order by
``(-score, record_id)`` before cutting to ``k``, so equal Dice scores never
reorder between runs.  Scores are float64 so the vectorized kernel agrees
*bit-for-bit* with the pure-Python :func:`dice_reference` (same IEEE ops in
the same order) -- the property tests assert exact equality, not closeness.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..kernels import scratch_buf, topk_candidates

#: bits per packed word
WORD_BITS = 64

#: rows of packed filters ANDed per kernel call; one block of uint64
#: scratch (BLOCK_ROWS x words) stays comfortably inside L2/L3
BLOCK_ROWS = 8192

# SWAR popcount constants (Hacker's Delight fig. 5-2), one uint64 each
_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)
_S1, _S2, _S4, _S56 = (np.uint64(s) for s in (1, 2, 4, 56))

#: 256-entry byte lookup table -- the classic LUT popcount, kept as an
#: independent implementation to cross-check the bit-twiddling ladder
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

# ----------------------------------------------------------------------
# Popcount
# ----------------------------------------------------------------------
def popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-word population counts via the SWAR bit-twiddling ladder.

    ``words`` is uint64 of any shape; the result is uint64 of the same
    shape with each element in ``[0, 64]``.  Branch-free and fully
    vectorized: two masked half-adds, a nibble fold, then the multiply
    trick that sums the eight byte counts into the top byte.
    """
    x = np.asarray(words, dtype=np.uint64).copy()
    x -= (x >> _S1) & _M1
    x = (x & _M2) + ((x >> _S2) & _M2)
    x = (x + (x >> _S4)) & _M4
    return (x * _H01) >> _S56


def popcount(packed: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of packed filters: ``(..., W) -> (...)`` int64."""
    packed = np.asarray(packed, dtype=np.uint64)
    return popcount_words(packed).sum(axis=-1).astype(np.int64)


def popcount_bytes(packed: np.ndarray) -> np.ndarray:
    """Per-row counts via the 256-entry byte LUT (cross-check implementation).

    Views the packed words as bytes and gathers through :data:`_POPCOUNT8`;
    independent of the SWAR ladder, used by tests and the benchmark to pin
    both against the pure-Python reference.
    """
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    as_bytes = packed.view(np.uint8)
    return _POPCOUNT8[as_bytes].sum(axis=-1, dtype=np.int64)


# ----------------------------------------------------------------------
# Dice similarity
# ----------------------------------------------------------------------
def dice_scores(query: np.ndarray, filters: np.ndarray,
                pops: Optional[np.ndarray] = None,
                query_pop: Optional[int] = None,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Dice similarity of one packed query against many packed filters.

    ``query`` is uint64 ``(W,)``; ``filters`` uint64 ``(M, W)``; the result
    is float64 ``(M,)`` with ``2|A∩B| / (|A| + |B|)`` per row (0.0 when
    both filters are empty).  Blocks of ``BLOCK_ROWS`` filters are ANDed
    into one recycled scratch buffer and popcounted in place -- the AND of
    the full catalog never exists.  ``pops`` (per-filter set-bit counts)
    and ``query_pop`` are recomputed when not supplied.
    """
    query = np.ascontiguousarray(query, dtype=np.uint64)
    filters = np.asarray(filters, dtype=np.uint64)
    rows = filters.shape[0]
    if pops is None:
        pops = popcount(filters)
    if query_pop is None:
        query_pop = int(popcount(query))
    if out is None:
        out = np.empty(rows, dtype=np.float64)
    if rows == 0:
        return out
    block = min(rows, BLOCK_ROWS)
    inter = scratch_buf("dice_and", (block, filters.shape[1]), np.uint64)
    for start in range(0, rows, block):
        stop = min(start + block, rows)
        chunk = inter[: stop - start]
        np.bitwise_and(filters[start:stop], query, out=chunk)
        shared = popcount(chunk)
        denom = pops[start:stop] + query_pop
        seg = out[start:stop]
        seg[:] = 0.0
        np.divide(2.0 * shared, denom, out=seg, where=denom > 0)
    return out


def dice_topk(query: np.ndarray, filters: np.ndarray, k: int,
              pops: Optional[np.ndarray] = None,
              rows: Optional[np.ndarray] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Blocked streaming Dice top-k that never holds the full score vector.

    Streams ``filters`` (optionally restricted to ``rows``) through
    block-sized AND-popcount passes, keeping a running candidate pool of at
    most ``k`` rows plus ties.  Returns ``(pool_rows, pool_scores)`` --
    unordered, possibly longer than ``k`` when the k-th score is tied.
    """
    filters = np.asarray(filters, dtype=np.uint64)
    if pops is None:
        pops = popcount(filters)
    if rows is None:
        rows = np.arange(filters.shape[0])
    rows = np.asarray(rows, dtype=np.int64)
    query = np.ascontiguousarray(query, dtype=np.uint64)
    query_pop = int(popcount(query))
    pool_rows = np.empty(0, dtype=np.int64)
    pool_scores = np.empty(0, dtype=np.float64)
    for start in range(0, len(rows), BLOCK_ROWS):
        chunk = rows[start:start + BLOCK_ROWS]
        scores = dice_scores(query, filters[chunk], pops=pops[chunk],
                             query_pop=query_pop)
        keep = topk_candidates(scores, k)
        pool_rows = np.concatenate([pool_rows, chunk[keep]])
        pool_scores = np.concatenate([pool_scores, scores[keep]])
        if len(pool_rows) > k:
            keep = topk_candidates(pool_scores, k)
            pool_rows, pool_scores = pool_rows[keep], pool_scores[keep]
    return pool_rows, pool_scores


# ----------------------------------------------------------------------
# Pure-Python reference (tests + the naive benchmark arm)
# ----------------------------------------------------------------------
def popcount_reference(packed: Sequence[int]) -> int:
    """``bin(word).count("1")`` over packed words -- the test oracle."""
    return sum(bin(int(word)).count("1") for word in packed)


def dice_reference(a: Sequence[int], b: Sequence[int]) -> float:
    """Pure-Python Dice over two packed filters, word by word.

    Uses the exact float64 operation order of the vectorized kernel
    (``2.0 * inter / (pa + pb)``) so agreement is bit-exact, and the same
    both-empty convention (0.0).
    """
    if len(a) != len(b):
        raise ValueError(f"word-length mismatch: {len(a)} vs {len(b)}")
    inter = sum(bin(int(x) & int(y)).count("1") for x, y in zip(a, b))
    denom = popcount_reference(a) + popcount_reference(b)
    if denom == 0:
        return 0.0
    return 2.0 * inter / denom


def naive_dice_scores(query: Sequence[int], filters: np.ndarray) -> List[float]:
    """Per-pair Python loop over the catalog -- the benchmark's naive arm."""
    query = [int(w) for w in query]
    return [dice_reference(query, row) for row in np.asarray(filters)]
