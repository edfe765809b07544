"""DenseCandidateIndex: the online counterpart of the dense blocker.

Mirrors the :class:`~repro.serve.index.ServingIndex` catalog protocol
(``add`` / ``add_many`` / ``remove`` / ``candidates``) over a
:class:`repro.ann.AnnIndex`, so :class:`~repro.serve.server.MatchServer`
can route match queries through either candidate generator at runtime
(the ``/admin/candidates`` route flips the mode).

Semantics intentionally match the token index:

* re-adding an id replaces the old record atomically (the previous
  vector is unlinked before the new one is routed);
* ``candidates`` returns top-k ``(record, score)`` ordered by the
  deterministic ``(-score, record_id)`` rule -- here the score is the
  quantized cosine similarity instead of the overlap coefficient;
* locking is scoped like the token index after its snapshot rework: the
  record-map lock guards only dictionary bookkeeping, embedding runs
  outside it (it is the expensive, pure part), and the ANN index snapshots
  probed rows under its own lock before scoring.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from ..ann.encoder import RecordEncoder
from ..ann.index import AnnIndex, make_index
from ..data.records import EntityRecord
from ..obs import get_telemetry


class DenseCandidateIndex:
    """Embedding-based candidate catalog with incremental maintenance."""

    def __init__(self, encoder: RecordEncoder,
                 index: Optional[AnnIndex] = None, kind: str = "ivf",
                 min_score: Optional[float] = None, default_k: int = 5,
                 seed: int = 0, **index_kwargs) -> None:
        if default_k < 1:
            raise ValueError("default_k must be >= 1")
        self.encoder = encoder
        self.index = index if index is not None else \
            make_index(kind, encoder.dim, seed=seed, **index_kwargs)
        self.min_score = min_score
        self.default_k = default_k
        self._lock = threading.RLock()
        self._records: Dict[str, EntityRecord] = {}

    @property
    def kind(self) -> str:
        """``dense:<ann kind>``, e.g. ``dense:ivf`` (``/healthz``)."""
        ann = type(self.index).__name__.replace("Index", "").lower()
        return f"dense:{ann}"

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __contains__(self, record_id: str) -> bool:
        with self._lock:
            return record_id in self._records

    def get(self, record_id: str) -> Optional[EntityRecord]:
        with self._lock:
            return self._records.get(record_id)

    # ------------------------------------------------------------------
    def add(self, record: EntityRecord) -> bool:
        """Insert ``record``; ``False`` when it replaced an earlier record
        with the same id.  The embedding is computed outside the lock."""
        return self.add_vector(record, self.encoder.encode_record(record))

    def add_vector(self, record: EntityRecord, vector) -> bool:
        """Insert a record whose embedding the caller already holds (the
        sharded index embeds a batch once, then routes vectors here)."""
        with self._lock:
            fresh = record.record_id not in self._records
            self._records[record.record_id] = record
            self.index.add(record.record_id, vector)
            size = len(self._records)
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.gauge("serve.dense_index.size").set(size)
        return fresh

    def add_many(self, records) -> int:
        """Bulk insert; returns the number of *new* ids.

        Embeds the whole batch in one cache-aware sweep (bucketed
        forwards) before touching the lock -- the path catalog loads and
        ``/admin/catalog`` bulk adds take.
        """
        records = list(records)
        if not records:
            return 0
        vectors = self.encoder.encode_records(records)
        fresh = 0
        with self._lock:
            for i, record in enumerate(records):
                if record.record_id not in self._records:
                    fresh += 1
                self._records[record.record_id] = record
                self.index.add(record.record_id, vectors[i])
            size = len(self._records)
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.gauge("serve.dense_index.size").set(size)
        return fresh

    def remove(self, record_id: str) -> bool:
        with self._lock:
            if record_id not in self._records:
                return False
            del self._records[record_id]
            self.index.remove(record_id)
            size = len(self._records)
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.gauge("serve.dense_index.size").set(size)
        return True

    def train(self) -> "DenseCandidateIndex":
        """(Re)train a trainable index (IVF) on the current catalog."""
        train = getattr(self.index, "train", None)
        if train is None:
            return self
        with self._lock:
            records = list(self._records.values())
        if records:
            train(self.encoder.encode_records(records))
        return self

    # ------------------------------------------------------------------
    def candidates(self, record: EntityRecord,
                   k: Optional[int] = None
                   ) -> List[Tuple[EntityRecord, float]]:
        """Top-k ``(record, cosine)`` candidates for a query record."""
        k = self.default_k if k is None else int(k)
        if k < 1:
            raise ValueError("k must be >= 1")
        return self.candidates_from_vector(self.encoder.encode_record(record),
                                           k)

    def candidates_from_vector(self, query, k: int
                               ) -> List[Tuple[EntityRecord, float]]:
        """:meth:`candidates` for an already-embedded query vector."""
        if k < 1:
            raise ValueError("k must be >= 1")
        found = self.index.search(query, k)
        if self.min_score is not None:
            found = [(rid, score) for rid, score in found
                     if score >= self.min_score]
        with self._lock:
            out = []
            for rid, score in found:
                kept = self._records.get(rid)
                if kept is not None:      # removed between probe and here
                    out.append((kept, score))
        return out

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {"records": len(self._records),
                    "ann": self.index.stats()}
