"""The dict-of-set ``ServingIndex`` kept as the oracle for the array index.

:class:`repro.data.blocking.OverlapIndex` (served as
:class:`repro.serve.ServingIndex`) replaced this implementation;
the tests apply the same operations to both and require equal ``len``,
``get``, ``stats()`` and candidates. Below this paragraph and the
imports, the module is the replaced one, unchanged.

ServingIndex: an incrementally maintained catalog for query-shaped EM.

The offline :class:`~repro.data.blocking.OverlapBlocker` builds its
inverted index from scratch for one ``left x right`` sweep. An online
matching service instead holds a long-lived catalog that records join and
leave while queries arrive, so this index supports:

* ``add`` / ``remove`` of individual records (re-adding an id replaces the
  old record atomically -- tokens of the previous version are unlinked);
* ``candidates(record, k)`` -- top-k catalog records by overlap
  coefficient, the same score the offline blocker thresholds on, with a
  deterministic ``(-score, record_id)`` ordering so equal scores never
  reorder between calls.

Token semantics are shared with the blocker through
:func:`repro.data.blocking.record_tokens`, which keeps offline candidate
generation and online retrieval consistent.

Mutations are guarded by an internal lock; ``candidates`` holds that lock
only long enough to snapshot the postings a query touches (plus token
sizes and record refs) and scores *outside* it, so the
:class:`~repro.serve.server.MatchServer` can mutate the catalog from
admin calls while its scheduler thread resolves ``match`` requests
without queries serializing every mutator behind the scoring loop.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set, Tuple

from repro.data.blocking import record_tokens
from repro.data.records import EntityRecord
from repro.obs import get_telemetry


class ServingIndex:
    """Inverted token index over a mutable catalog of entity records."""

    #: what ``/healthz`` names this candidate generator
    kind = "sparse:token-overlap"

    def __init__(self, threshold: float = 0.0, min_shared_tokens: int = 1,
                 default_k: int = 5) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if min_shared_tokens < 1:
            raise ValueError("min_shared_tokens must be >= 1")
        if default_k < 1:
            raise ValueError("default_k must be >= 1")
        self.threshold = threshold
        self.min_shared_tokens = min_shared_tokens
        self.default_k = default_k
        self._lock = threading.RLock()
        self._records: Dict[str, EntityRecord] = {}
        self._tokens: Dict[str, Set[str]] = {}
        self._postings: Dict[str, Set[str]] = {}

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
        """Insert ``record``; returns False when it *replaced* an earlier
        record with the same id (the previous version is fully unlinked)."""
        tokens = record_tokens(record)
        with self._lock:
            fresh = record.record_id not in self._records
            if not fresh:
                self._unlink(record.record_id)
            self._records[record.record_id] = record
            self._tokens[record.record_id] = tokens
            for token in tokens:
                self._postings.setdefault(token, set()).add(record.record_id)
            size = len(self._records)
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.gauge("serve.index.size").set(size)
        return fresh

    def add_many(self, records) -> int:
        """Bulk insert; returns the number of *new* ids."""
        return sum(1 for record in records if self.add(record))

    def remove(self, record_id: str) -> bool:
        """Drop a record by id; returns False when the id is unknown."""
        with self._lock:
            if record_id not in self._records:
                return False
            self._unlink(record_id)
            size = len(self._records)
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.gauge("serve.index.size").set(size)
        return True

    def _unlink(self, record_id: str) -> None:
        # caller holds the lock
        for token in self._tokens.pop(record_id, ()):
            posting = self._postings.get(token)
            if posting is not None:
                posting.discard(record_id)
                if not posting:
                    del self._postings[token]
        del self._records[record_id]

    # ------------------------------------------------------------------
    def candidates(self, record: EntityRecord,
                   k: Optional[int] = None
                   ) -> List[Tuple[EntityRecord, float]]:
        """Top-k ``(record, overlap_coefficient)`` candidates for a query.

        A query with no tokens, or no shared tokens with any catalog
        record, returns an empty list rather than scoring everything at
        zero -- the service treats "nothing overlaps" as "no candidates".
        """
        k = self.default_k if k is None else int(k)
        if k < 1:
            raise ValueError("k must be >= 1")
        query_tokens = record_tokens(record)
        if not query_tokens:
            return []
        # Snapshot under the lock, score outside it: the scoring loop is
        # the expensive part and used to serialize every mutator behind
        # every query.  One lock acquisition copies the postings touched
        # by the query plus the matching records' token sizes and record
        # refs, so the scored view is internally consistent (no torn
        # reads) while adds/removes proceed concurrently.
        with self._lock:
            postings = [tuple(self._postings.get(token, ()))
                        for token in query_tokens]
            sizes: Dict[str, int] = {}
            records: Dict[str, EntityRecord] = {}
            for posting in postings:
                for rid in posting:
                    if rid not in sizes:
                        sizes[rid] = len(self._tokens[rid])
                        records[rid] = self._records[rid]
        counts: Dict[str, int] = {}
        for posting in postings:
            for rid in posting:
                counts[rid] = counts.get(rid, 0) + 1
        scored: List[Tuple[float, str]] = []
        for rid, shared in counts.items():
            if shared < self.min_shared_tokens:
                continue
            smaller = min(len(query_tokens), sizes[rid])
            score = shared / smaller if smaller else 0.0
            if score >= self.threshold:
                scored.append((score, rid))
        scored.sort(key=lambda item: (-item[0], item[1]))
        return [(records[rid], score) for score, rid in scored[:k]]

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "records": len(self._records),
                "tokens": len(self._postings),
                "postings": sum(len(p) for p in self._postings.values()),
            }
