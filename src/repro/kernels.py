"""Numpy helpers shared by the scoring kernels, with no other dependency.

:mod:`repro.ann.kernels`, :mod:`repro.privacy.kernels`,
:mod:`repro.autograd.blocks` and :mod:`repro.infer.fastpath` recycle
per-thread scratch buffers, and the first two keep the top-k of a score
vector; the candidate indexes and the serving
shards all order hits the same way (:func:`rank_key`, and
:func:`top_rows` for a score array). This module holds the one copy of
each. It imports only numpy and threading, so :mod:`repro.privacy` still
loads without the encoder or language-model stack
(``tests/privacy/test_shared_kernels.py`` pins that).
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

_scratch = threading.local()


def scratch_buf(key: str, shape, dtype) -> np.ndarray:
    """Reusable per-thread buffer, reallocated only when ``shape`` or
    ``dtype`` changes.

    The large temporaries of a kernel -- attention scores, a dequantized
    code block, an AND-ed filter block -- would otherwise cost an
    allocation plus first-touch page faults on every call. Callers
    overwrite every element they read back, so reuse is bit-transparent;
    distinct ``key`` strings keep the callers' buffers apart.
    """
    store = getattr(_scratch, "bufs", None)
    if store is None:
        store = _scratch.bufs = {}
    buf = store.get(key)
    if buf is None or buf.shape != tuple(shape) or buf.dtype != dtype:
        buf = store[key] = np.empty(shape, dtype)
    return buf


def topk_candidates(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the top-k scores *including every tie at the k-th value*.

    Returned unordered (``np.flatnonzero`` order); callers sort by
    :func:`rank_key` and cut to ``k``, which is what makes the final
    ordering deterministic regardless of storage order.
    """
    n = len(scores)
    if n <= k:
        return np.arange(n)
    kth = np.partition(scores, n - k)[n - k]
    return np.flatnonzero(scores >= kth)


def rank_key(ident: str, score: float) -> Tuple[float, str]:
    """The one candidate order: higher score first, ties by ascending id."""
    return (-score, ident)


def top_rows(scores: np.ndarray, order: np.ndarray, k: int) -> np.ndarray:
    """:func:`rank_key` over arrays: positions of the first ``k`` entries.

    ``order`` holds distinct integers that ascend with the entries' ids
    (their ranks, or any keys in the same order), so the result equals
    sorting ``(-score, id)`` and cutting to ``k``. Only rows tied at the k-th score are ranked by ``order``,
    with a partition; however many rows tie, no Python sort runs.
    """
    n = len(scores)
    if n <= k:
        picked = np.arange(n)
    else:
        kth = np.partition(scores, n - k)[n - k]
        above = np.flatnonzero(scores > kth)
        tied = np.flatnonzero(scores == kth)
        need = k - len(above)
        if len(tied) > need:
            tied = tied[np.argpartition(order[tied], need - 1)[:need]]
        picked = np.concatenate([above, tied])
    return picked[np.lexsort((order[picked], -scores[picked]))]


def top_ranked(entries: Iterable[Tuple[object, float]], k: int,
               ident: Optional[Callable[[object], str]] = None
               ) -> List[Tuple[object, float]]:
    """The first ``k`` ``(item, score)`` entries under :func:`rank_key`.

    ``ident`` maps an item to its id; by default the item is its id (a
    record id string)."""
    name = ident if ident is not None else (lambda item: item)
    return sorted(entries,
                  key=lambda entry: rank_key(name(entry[0]), entry[1]))[:k]
