"""Token-overlap blocking (the first stage of the classic EM workflow).

The paper focuses on *matching* and assumes candidate pairs already exist
(Section 2.1), but a complete system needs the blocking step: enumerate
left x right, keep pairs whose serialized token overlap clears a threshold,
reducing the quadratic candidate space while retaining recall.

:class:`OverlapIndex` is the repo's one token-overlap index, over a
mutable catalog of records: :class:`OverlapBlocker` is a threshold sweep
over one index of the right table, and the serving side queries the same
class as :class:`repro.serve.ServingIndex` (the
:class:`~repro.serve.server.MatchServer`'s sparse candidates and every
pool shard, through :class:`~repro.serve.shard.ShardedIndex`), so offline
and online candidates are computed by the same code.

* ``add`` / ``add_many`` / ``remove`` of records; re-adding an id
  replaces the old record atomically (its old postings are unlinked, and
  within one ``add_many`` the last copy of an id wins);
* ``candidates(record, k)`` -- top-k catalog records by overlap
  coefficient ``shared / min(|query|, |record|)``, ordered by
  ``(-score, record_id)`` so equal scores never reorder between calls.

Storage is array-backed. Each record holds a row, recycled through a
free list as in :class:`repro.privacy.ClkCandidateIndex`, and each token
keeps an int32 posting array of rows plus each row's slot in it, so one
posting entry is linked by an append and unlinked by moving the
posting's last entry into its slot: O(1) either way. A re-add moves only
the entries of tokens that changed, and ``add_many`` stages the batch's
new entries by token and extends each touched posting once. A query
concatenates its tokens' postings, counts shared tokens per row with
``np.bincount``, scores in float64 (the same IEEE division as Python's
``shared / smaller``) and ranks with :func:`repro.kernels.top_rows`.
Each row also carries an integer key that ascends with its id: a new id
takes the midpoint of its neighbours' keys (all keys are spaced out
again when a gap closes), so ties break by id without sorting strings
at query time and no write touches other rows' keys. Mutations and
queries take one internal lock; a query holds it for a few array
passes, so a reader never sees a half-applied write.

For the dense (embedding-based) alternative that scales past token
postings, see :class:`repro.ann.DenseBlocker` and ``docs/BLOCKING.md``.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left
from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from itertools import count
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..kernels import top_rows
from ..obs import get_telemetry
from ..text.tokenizer import basic_tokenize
from .records import EntityRecord, Table
from .serialize import serialize

#: entries kept in the record_tokens memo below
_TOKEN_CACHE_CAP = 32768

_token_cache: "OrderedDict[tuple, FrozenSet[str]]" = OrderedDict()
_token_cache_lock = threading.Lock()


def record_tokens(record: EntityRecord) -> FrozenSet[str]:
    """Blocking token set of a record: serialized, markers and 1-char
    tokens dropped. :class:`OverlapIndex` (behind :class:`OverlapBlocker`
    and the serving-side :class:`repro.serve.ServingIndex`) counts
    overlap over these sets.

    Memoized on record *content* (:meth:`EntityRecord.content_key`, like
    the engine's encoding cache): every ``OverlapBlocker.block`` sweep and
    every index ``add`` used to re-serialize and re-tokenize the
    same record.  Content addressing means a record replaced under an
    existing id can never be served the old version's token set.  The
    returned set is a shared frozenset -- callers must not mutate it.
    """
    key = record.content_key()
    with _token_cache_lock:
        tokens = _token_cache.get(key)
        if tokens is not None:
            _token_cache.move_to_end(key)
            return tokens
    tokens = frozenset(t for t in basic_tokenize(serialize(record))
                       if t not in ("[COL]", "[VAL]") and len(t) > 1)
    with _token_cache_lock:
        existing = _token_cache.get(key)
        if existing is not None:
            return existing
        _token_cache[key] = tokens
        if len(_token_cache) > _TOKEN_CACHE_CAP:
            _token_cache.popitem(last=False)
    return tokens


def clear_token_cache() -> None:
    """Drop the record_tokens memo (tests and memory-pressure hooks)."""
    with _token_cache_lock:
        _token_cache.clear()


#: ``array`` type code of the posting arrays: C int, 32 bits wide
_ROW = "i"
#: spacing of the id-order keys after :meth:`OverlapIndex._renumber`
_GAP = 1 << 32


class _Posting:
    """The rows holding one token, and each row's slot in ``rows``."""

    __slots__ = ("rows", "slots")

    def __init__(self) -> None:
        self.rows = array(_ROW)
        self.slots: Dict[int, int] = {}

    def extend(self, rows: List[int]) -> None:
        self.slots.update(zip(rows, count(len(self.rows))))
        self.rows.extend(rows)

    def discard(self, row: int) -> None:
        """Take ``row`` out: the last entry moves into its slot."""
        slot = self.slots.pop(row)
        moved = self.rows.pop()
        if slot < len(self.rows):
            self.rows[slot] = moved
            self.slots[moved] = slot


class OverlapIndex:
    """Token-overlap candidate index over a mutable catalog of records."""

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
        self._rows: Dict[str, int] = {}
        #: row -> record, None for a free row
        self._records: List[Optional[EntityRecord]] = []
        #: row -> its token set (empty for a free row)
        self._tokens: List[FrozenSet[str]] = []
        self._free: List[int] = []
        #: row -> token count
        self._sizes = np.zeros(0, dtype=np.int64)
        #: row -> its id's order key: keys ascend with the live ids
        self._keys = np.zeros(0, dtype=np.int64)
        self._sorted_ids: List[str] = []
        self._postings: Dict[str, _Posting] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def __contains__(self, record_id: str) -> bool:
        with self._lock:
            return record_id in self._rows

    def get(self, record_id: str) -> Optional[EntityRecord]:
        with self._lock:
            row = self._rows.get(record_id)
            return None if row is None else self._records[row]

    # ------------------------------------------------------------------
    def add(self, record: EntityRecord) -> bool:
        """Insert ``record``; returns False when it *replaced* an earlier
        record with the same id (the previous version is fully unlinked)."""
        return self.add_many([record]) == 1

    def add_many(self, records) -> int:
        """Bulk insert; returns the number of *new* ids."""
        batch = {record.record_id: record for record in records}
        tokens = [record_tokens(record) for record in batch.values()]
        with self._lock:
            fresh = [rid for rid in batch if rid not in self._rows]
            self._rows.update(zip(fresh, self._take_rows(len(fresh))))
            if fresh:
                self._place(fresh)
            staged: Dict[str, List[int]] = defaultdict(list)
            for record, new in zip(batch.values(), tokens):
                row = self._rows[record.record_id]
                old = self._tokens[row]
                self._unlink(row, old - new)
                for token in new - old:
                    staged[token].append(row)
                self._records[row] = record
                self._tokens[row] = new
                self._sizes[row] = len(new)
            for token, rows in staged.items():
                posting = self._postings.get(token)
                if posting is None:
                    posting = self._postings[token] = _Posting()
                posting.extend(rows)
            size = len(self._rows)
        self._gauge(size)
        return len(fresh)

    def remove(self, record_id: str) -> bool:
        """Drop a record by id; returns False when the id is unknown."""
        with self._lock:
            row = self._rows.pop(record_id, None)
            if row is None:
                return False
            self._unlink(row, self._tokens[row])
            self._tokens[row] = frozenset()
            del self._sorted_ids[bisect_left(self._sorted_ids, record_id)]
            self._records[row] = None
            self._free.append(row)
            size = len(self._rows)
        self._gauge(size)
        return True

    # -- storage (callers hold the lock) -------------------------------
    def _take_rows(self, count: int) -> List[int]:
        """``count`` rows for new ids: freed rows first, then new ones."""
        rows = [self._free.pop() for _ in range(min(count, len(self._free)))]
        start = len(self._records)
        added = count - len(rows)
        rows.extend(range(start, start + added))
        self._records.extend([None] * added)
        self._tokens.extend([frozenset()] * added)
        if len(self._records) > len(self._keys):
            grown = max(64, 2 * len(self._records))
            self._sizes = np.resize(self._sizes, grown)
            self._keys = np.resize(self._keys, grown)
        return rows

    def _place(self, ids: List[str]) -> None:
        """Key each new id between its neighbours in id order; when two
        neighbours' keys are adjacent, space every key out again."""
        for rid in sorted(ids):
            at = bisect_left(self._sorted_ids, rid)
            self._sorted_ids.insert(at, rid)
            lo, hi = self._key_at(at - 1), self._key_at(at + 1)
            if lo is None:
                lo = (0 if hi is None else hi) - 2 * _GAP
            if hi is None:
                hi = lo + 2 * _GAP
            if hi - lo < 2:
                self._renumber()
            else:
                self._keys[self._rows[rid]] = (lo + hi) // 2

    def _key_at(self, at: int) -> Optional[int]:
        """The key of the ``at``-th id in id order, None off either end."""
        if 0 <= at < len(self._sorted_ids):
            return int(self._keys[self._rows[self._sorted_ids[at]]])
        return None

    def _renumber(self) -> None:
        rows = [self._rows[rid] for rid in self._sorted_ids]
        self._keys[rows] = np.arange(len(rows), dtype=np.int64) * _GAP

    def _unlink(self, row: int, tokens) -> None:
        for token in tokens:
            posting = self._postings[token]
            posting.discard(row)
            if not posting.rows:
                del self._postings[token]

    @staticmethod
    def _gauge(size: int) -> None:
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.gauge("serve.index.size").set(size)

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
        with self._lock:
            postings = [self._postings[token] for token in query_tokens
                        if token in self._postings]
            if not postings:
                return []
            # the frombuffer views die inside the call, before any write
            # could need to resize an array they export
            hits = np.concatenate([np.frombuffer(posting.rows, np.intc)
                                   for posting in postings])
            shared = np.bincount(hits)
            rows = np.flatnonzero(shared >= self.min_shared_tokens)
            scores = shared[rows] / np.minimum(len(query_tokens),
                                               self._sizes[rows])
            kept = scores >= self.threshold
            rows, scores = rows[kept], scores[kept]
            top = top_rows(scores, self._keys[rows], k)
            return [(self._records[row], score) for row, score in
                    zip(rows[top].tolist(), scores[top].tolist())]

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "records": len(self._rows),
                "tokens": len(self._postings),
                "postings": sum(len(posting.rows)
                                for posting in self._postings.values()),
            }


@dataclass
class BlockingResult:
    """Candidate pairs surviving the blocker, plus bookkeeping for recall.

    ``recall_at_k`` is filled by blockers that can measure themselves
    against an exact reference (the dense blocker's ANN-vs-exact-top-k
    bookkeeping); token blockers leave it ``None``.
    """

    candidates: List[Tuple[EntityRecord, EntityRecord]]
    total_pairs: int
    recall_at_k: Optional[float] = None

    @property
    def reduction_ratio(self) -> float:
        """Fraction of the cross product pruned.

        An empty cross product reports ``1.0`` by convention: with nothing
        to prune, "everything pruned" is vacuously true, and both the
        sparse and dense blockers agree on it (a ``0.0`` here used to make
        an empty sweep look like the blocker kept everything).
        """
        if self.total_pairs == 0:
            return 1.0
        return 1.0 - len(self.candidates) / self.total_pairs


class OverlapBlocker:
    """Token blocker with an overlap-coefficient filter: a threshold sweep
    over one :class:`OverlapIndex` of the right table."""

    def __init__(self, threshold: float = 0.3, min_shared_tokens: int = 1) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.threshold = threshold
        self.min_shared_tokens = min_shared_tokens

    def block(self, left: Table, right: Table) -> BlockingResult:
        """Return candidate pairs sharing enough tokens.

        Each left record asks the index of ``right`` for every record
        that clears the threshold, so a left record's candidates come in
        ``(-score, record_id)`` order. The index counts shared tokens and
        scores ``shared / min(|L|, |R|)`` exactly as the serving path
        does, so online and offline candidates cannot drift apart.
        """
        # a pair shares at least one token to be scored at all, so 0 acts as 1
        index = OverlapIndex(self.threshold, max(self.min_shared_tokens, 1))
        index.add_many(right)
        everything = max(len(index), 1)
        candidates = [(record, match) for record in left
                      for match, _ in index.candidates(record, everything)]
        return BlockingResult(candidates=candidates,
                              total_pairs=len(left) * len(right))


def blocking_recall(result: BlockingResult,
                    true_matches: List[Tuple[str, str]]) -> float:
    """Fraction of known matched (left_id, right_id) pairs the blocker kept."""
    if not true_matches:
        return 1.0
    kept = {(l.record_id, r.record_id) for l, r in result.candidates}
    hit = sum(1 for pair in true_matches if pair in kept)
    return hit / len(true_matches)
