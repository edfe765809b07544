"""ClkCandidateIndex: incremental CLK catalog with Dice top-k search.

The privacy-mode counterpart of :class:`repro.serve.DenseCandidateIndex`:
the same catalog protocol (``add`` / ``add_many`` / ``remove`` /
``candidates`` / ``stats``) over packed Bloom filters instead of int8
embeddings.  Two deployment shapes share this class:

* **cross-party** -- no encoder, no records: entries arrive as
  ``(record_id, packed filter)`` pairs (:meth:`add_clk`) and queries as
  filters (:meth:`search`).  The index holds nothing reversible, which is
  what makes the no-plaintext serving guarantee checkable;
* **single-party** -- constructed with a :class:`ClkEncoder`: plaintext
  records are encoded on ``add`` and kept alongside their filters, so the
  match server can hand candidate *records* to the scoring model while
  candidate *generation* runs over CLKs (recall measurement, trade-off
  benchmarks).

Storage mirrors :class:`repro.ann.AnnIndex`: a growable packed matrix with
per-row popcounts, a row -> id ribbon with ``None`` tombstones, and a free
list so removes recycle rows.  Re-adding an id replaces the old filter in
place (the replace-on-readd contract the regression tests pin).  Search
snapshots live rows under the lock and scores outside it; results follow
the deterministic ``(-score, record_id)`` ordering.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..data.records import EntityRecord
from ..kernels import top_ranked
from ..obs import get_telemetry
from .encoder import ClkEncoder
from .kernels import dice_topk, popcount

#: initial packed-matrix capacity (rows); doubles on growth
_INITIAL_CAPACITY = 64


def packed_filter(clk, words: int) -> np.ndarray:
    """``clk`` as a contiguous ``(words,)`` uint64 filter; ValueError on
    any other shape."""
    clk = np.ascontiguousarray(clk, dtype=np.uint64)
    if clk.shape != (words,):
        raise ValueError(
            f"expected a ({words},) packed filter, got shape {clk.shape}")
    return clk


class ClkCandidateIndex:
    """CLK-based candidate catalog with incremental maintenance."""

    kind = "clk"

    def __init__(self, words: Optional[int] = None,
                 encoder: Optional[ClkEncoder] = None,
                 min_score: Optional[float] = None,
                 default_k: int = 5) -> None:
        if default_k < 1:
            raise ValueError("default_k must be >= 1")
        if encoder is not None:
            encoder_words = encoder.config.words
            if words is not None and words != encoder_words:
                raise ValueError(
                    f"words={words} conflicts with encoder "
                    f"({encoder_words} words)")
            words = encoder_words
        if words is None or words < 1:
            raise ValueError("need words >= 1 (or an encoder to infer it)")
        self.words = int(words)
        self.encoder = encoder
        self.min_score = min_score
        self.default_k = default_k
        self._lock = threading.RLock()
        self._filters = np.zeros((_INITIAL_CAPACITY, self.words),
                                 dtype=np.uint64)
        self._pops = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self._ids: List[Optional[str]] = [None] * _INITIAL_CAPACITY
        #: row -> holds a filter; a query scores the rows set here
        self._live = np.zeros(_INITIAL_CAPACITY, dtype=bool)
        self._rows: Dict[str, int] = {}
        self._free: List[int] = list(range(_INITIAL_CAPACITY - 1, -1, -1))
        self._records: Dict[str, EntityRecord] = {}

    # -- size / membership --------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def __contains__(self, record_id: str) -> bool:
        with self._lock:
            return record_id in self._rows

    def get(self, record_id: str) -> Optional[EntityRecord]:
        """Stored plaintext record (single-party mode only), else ``None``."""
        with self._lock:
            return self._records.get(record_id)

    def get_clk(self, record_id: str) -> Optional[np.ndarray]:
        with self._lock:
            row = self._rows.get(record_id)
            return None if row is None else self._filters[row].copy()

    # -- maintenance ---------------------------------------------------
    def _take_row(self) -> int:
        if self._free:
            return self._free.pop()
        old = self._filters.shape[0]
        grown = max(_INITIAL_CAPACITY, old * 2)
        filters = np.zeros((grown, self.words), dtype=np.uint64)
        filters[:old] = self._filters
        pops = np.zeros(grown, dtype=np.int64)
        pops[:old] = self._pops
        live = np.zeros(grown, dtype=bool)
        live[:old] = self._live
        self._filters, self._pops, self._live = filters, pops, live
        self._ids.extend([None] * (grown - old))
        self._free.extend(range(grown - 1, old, -1))
        return old

    def _set_gauge(self, size: int) -> None:
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.gauge("privacy.clk_index.size").set(size)

    def add_clk(self, record_id: str, clk: np.ndarray,
                record: Optional[EntityRecord] = None) -> bool:
        """Insert a pre-encoded filter; ``False`` when it replaced an
        earlier filter for the same id (mutated-record re-add)."""
        clk = packed_filter(clk, self.words)
        pop = int(popcount(clk))
        with self._lock:
            row = self._rows.get(record_id)
            fresh = row is None
            if fresh:
                row = self._take_row()
                self._rows[record_id] = row
                self._ids[row] = record_id
                self._live[row] = True
            self._filters[row] = clk
            self._pops[row] = pop
            if record is not None:
                self._records[record_id] = record
            else:
                # a filter-only (re)add leaves no plaintext behind; any
                # record stored for this id no longer matches the filter
                self._records.pop(record_id, None)
            size = len(self._rows)
        self._set_gauge(size)
        return fresh

    def add_clk_many(self, entries: Iterable[Tuple[str, np.ndarray]]) -> int:
        """Bulk filter insert, all or nothing (every shape is checked
        first); returns the number of *new* ids."""
        entries = [(record_id, packed_filter(clk, self.words))
                   for record_id, clk in entries]
        fresh = 0
        for record_id, clk in entries:
            if self.add_clk(record_id, clk):
                fresh += 1
        return fresh

    def _require_encoder(self) -> ClkEncoder:
        if self.encoder is None:
            raise ValueError(
                "this ClkCandidateIndex holds no salt (cross-party mode); "
                "submit pre-encoded filters via add_clk / search instead")
        return self.encoder

    def add(self, record: EntityRecord) -> bool:
        """Encode + insert a plaintext record (single-party mode)."""
        clk = self._require_encoder().encode_record(record)
        return self.add_clk(record.record_id, clk, record=record)

    def add_many(self, records: Iterable[EntityRecord]) -> int:
        records = list(records)
        if not records:
            return 0
        filters = self._require_encoder().encode_records(records)
        fresh = 0
        with self._lock:
            for i, record in enumerate(records):
                if self.add_clk(record.record_id, filters[i], record=record):
                    fresh += 1
        return fresh

    def remove(self, record_id: str) -> bool:
        with self._lock:
            row = self._rows.pop(record_id, None)
            if row is None:
                return False
            self._ids[row] = None
            self._live[row] = False
            self._filters[row] = 0
            self._pops[row] = 0
            self._free.append(row)
            self._records.pop(record_id, None)
            size = len(self._rows)
        self._set_gauge(size)
        return True

    # -- search --------------------------------------------------------
    def search(self, clk: np.ndarray, k: Optional[int] = None
               ) -> List[Tuple[str, float]]:
        """Top-k ``(record_id, dice)`` for a packed query filter.

        The live-row mask is snapshotted under the lock; the popcount
        kernels run outside it over the stored filter matrix in place
        (array reallocation on growth leaves the snapshot's references
        valid).  Ties at the k-th score resolve by record id.
        """
        k = self.default_k if k is None else int(k)
        if k < 1:
            raise ValueError("k must be >= 1")
        clk = packed_filter(clk, self.words)
        with self._lock:
            if not self._rows:
                return []
            live = self._live.copy()
            ids = list(self._ids)
            filters, pops = self._filters, self._pops
        pool_rows, pool_scores = dice_topk(clk, filters, k, pops=pops,
                                           live=live)
        found = [(ids[row], float(score))
                 for row, score in zip(pool_rows.tolist(), pool_scores)]
        if self.min_score is not None:
            found = [(rid, score) for rid, score in found
                     if score >= self.min_score]
        return top_ranked(found, k)

    def candidates(self, record: EntityRecord, k: Optional[int] = None
                   ) -> List[Tuple[EntityRecord, float]]:
        """Top-k ``(record, dice)`` for a plaintext query (single-party).

        Only hits whose plaintext record is stored resolve -- in
        cross-party mode nothing resolves, by construction.
        """
        clk = self._require_encoder().encode_record(record)
        return self.candidates_from_clk(clk, k)

    def candidates_from_clk(self, clk: np.ndarray, k: Optional[int] = None
                            ) -> List[Tuple[EntityRecord, float]]:
        """:meth:`candidates` for an already-encoded query filter."""
        found = self.search(clk, k)
        with self._lock:
            out = []
            for rid, score in found:
                kept = self._records.get(rid)
                if kept is not None:
                    out.append((kept, score))
        return out

    # -- bookkeeping ---------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            live = len(self._rows)
            capacity = self._filters.shape[0]
            fill = float(self._pops[list(self._rows.values())].mean()
                         / (self.words * 64)) if live else 0.0
            return {
                "kind": self.kind,
                "records": live,
                "plaintext_records": len(self._records),
                "words": self.words,
                "encoded_nbits": self.words * 64,
                "capacity": capacity,
                "free_rows": len(self._free),
                "mean_fill": fill,
                "has_encoder": self.encoder is not None,
            }
