"""Hash-partitioned candidate catalogs with scatter/gather top-k merge.

One catalog object cannot outgrow one process, so the pool splits the
candidate layer by ``record_id``: :func:`shard_of` maps every id to a
shard with a crc32 hash (salted python ``hash()`` would disagree across
processes), writes route to the owning shard only, and a query scatters
to every shard, takes each shard's local top-k, and merges the partial
rankings in the same deterministic ``(-score, record_id)`` order
(:func:`repro.kernels.rank_key`) the unsharded indexes use.

:class:`ShardedIndex` is that layer for sparse, dense and CLK shards
alike. It holds every shard or the ones a pool executor owns, and speaks
the unsharded catalog protocol plus the dense and CLK entry points, so a
:class:`~repro.serve.server.MatchServer` uses it as its index directly --
every :class:`~repro.serve.pool.ServingPool` executor is such a server.

The merge is *exact*, not approximate: every underlying index ranks by a
total order and a record's score depends only on the (query, record)
pair -- never on which other records share its shard -- so the global
top-k is always contained in the union of per-shard top-ks.  That is why
``tests/serve/test_shard.py`` can require bit-identical candidates
against the unsharded :class:`~repro.serve.index.ServingIndex` at shard
counts 1/2/4, including after add/remove/replace churn.

Dense parity holds to float32 reduction tolerance rather than bitwise:
the per-record int8 codes and scales are shard-independent (a bulk add
embeds its whole batch in one encoder call, as the unsharded index does,
then routes the vectors), but ``repro.ann.kernels.fused_scaled_dot``
scores each probed block with one BLAS gemv, and gemv accumulation order
varies with the row count, so a shard's scores can differ from the
unsharded index's in the last ulp (~1e-7).  Rankings still agree (the
tests assert identical ranked ids and approx-equal scores).

Two further caveats are inherited from the ANN layer: a *trained* IVF
shard fits its k-means quantizer on its own records, so its probe sets
(and therefore its recall, not its scoring) can differ from an unsharded
trained IVF index.  LSH shards share seeded hyperplanes, which makes
their probed row sets an exact partition of the unsharded buckets; the
parity tests use LSH and untrained (flat-scan) IVF.
"""

from __future__ import annotations

import zlib
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np

from ..data.records import EntityRecord
from ..kernels import top_ranked

#: per-shard ``stats()`` counters a sharded index reports as sums
_SUMMED_STATS = ("tokens", "postings", "plaintext_records")


def shard_of(record_id: str, shards: int) -> int:
    """Owning shard of a record id: stable across processes and runs."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    return zlib.crc32(record_id.encode("utf-8")) % shards


def _record_id(record: EntityRecord) -> str:
    return record.record_id


def merge_topk(partials: Iterable[Sequence[Tuple[EntityRecord, float]]],
               k: int) -> List[Tuple[EntityRecord, float]]:
    """Merge per-shard ``(record, score)`` rankings into one global top-k.

    Every partial list is already ordered by ``(-score, record_id)``; the
    merge re-sorts their union under the same total order, so the result
    is identical to ranking all shards' records in one index.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return top_ranked((entry for partial in partials for entry in partial),
                      k, _record_id)


class ShardedIndex:
    """``make_shard()`` per held shard behind the one-catalog protocol.

    ``shards`` is the catalog's total shard count (it fixes
    :func:`shard_of`); ``owned`` names the shards this object holds,
    every one by default. Writes touch exactly one shard, queries scatter
    to every held shard; per-record scoring is unchanged, so candidates
    equal an unsharded index's at any shard count.
    """

    def __init__(self, make_shard: Callable[[], object], shards: int = 1,
                 owned: Optional[Iterable[int]] = None) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.total_shards = shards
        self.shards: Dict[int, object] = {
            shard: make_shard()
            for shard in (range(shards) if owned is None else owned)}
        sample = next(iter(self.shards.values()), None)
        if sample is None:  # a replica that owns no shard
            sample = make_shard()
        self.kind: str = sample.kind
        self.default_k: int = sample.default_k
        #: the shards' shared encoder; None for token and filter-only shards
        self.encoder = getattr(sample, "encoder", None)
        #: dense shards take pre-embedded vectors, so a batch embeds once
        self._routes_vectors = hasattr(sample, "add_vector")

    def _held(self, record_id: str):
        """The held shard ``record_id`` belongs to, or None."""
        return self.shards.get(shard_of(record_id, self.total_shards))

    def _owner(self, record_id: str):
        """The held shard ``record_id`` belongs to (KeyError if not held)."""
        return self.shards[shard_of(record_id, self.total_shards)]

    def _group(self, items, record_id: Callable) -> Dict[int, list]:
        groups: Dict[int, list] = {}
        for item in items:
            groups.setdefault(shard_of(record_id(item), self.total_shards),
                              []).append(item)
        return groups

    def _k(self, k: Optional[int]) -> int:
        k = self.default_k if k is None else int(k)
        if k < 1:
            raise ValueError("k must be >= 1")
        return k

    # -- catalog protocol ----------------------------------------------
    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards.values())

    def __contains__(self, record_id: str) -> bool:
        shard = self._held(record_id)
        return shard is not None and record_id in shard

    def get(self, record_id: str) -> Optional[EntityRecord]:
        shard = self._held(record_id)
        return None if shard is None else shard.get(record_id)

    def add(self, record: EntityRecord) -> bool:
        return self._owner(record.record_id).add(record)

    def add_many(self, records) -> int:
        """Bulk insert; returns the number of *new* ids. Dense shards get
        vectors from one cache-aware embedding sweep over the batch."""
        records = list(records)
        if not records:
            return 0
        if self._routes_vectors:
            vectors = self.encoder.encode_records(records)
            return sum(self._owner(record.record_id).add_vector(record,
                                                                vectors[i])
                       for i, record in enumerate(records))
        return sum(self.shards[shard].add_many(group) for shard, group
                   in self._group(records, _record_id).items())

    def add_clk_many(self, entries) -> int:
        """Bulk ``(record_id, packed filter)`` insert into CLK shards."""
        return sum(self.shards[shard].add_clk_many(group) for shard, group
                   in self._group(entries, lambda entry: entry[0]).items())

    def remove(self, record_id: str) -> bool:
        shard = self._held(record_id)
        return shard is not None and shard.remove(record_id)

    def train(self) -> "ShardedIndex":
        """(Re)train each trainable shard on its own records."""
        for shard in self.shards.values():
            shard.train()
        return self

    # -- scatter/gather -------------------------------------------------
    def candidates(self, record: EntityRecord, k: Optional[int] = None
                   ) -> List[Tuple[EntityRecord, float]]:
        k = self._k(k)
        if self._routes_vectors:  # embed once, not once per shard
            return self.candidates_from_vector(
                self.encoder.encode_record(record), k)
        return merge_topk((shard.candidates(record, k)
                           for shard in self.shards.values()), k)

    def candidates_from_vector(self, query: np.ndarray, k: int
                               ) -> List[Tuple[EntityRecord, float]]:
        """Scatter an already-embedded dense query to every held shard."""
        return merge_topk((shard.candidates_from_vector(query, k)
                           for shard in self.shards.values()), k)

    def search(self, clk: np.ndarray, k: Optional[int] = None
               ) -> List[Tuple[str, float]]:
        """Dice top-k ``(record_id, score)`` over the held CLK shards."""
        k = self._k(k)
        return top_ranked((hit for shard in self.shards.values()
                           for hit in shard.search(clk, k)), k)

    def stats(self) -> dict:
        per_shard = [self.shards[shard].stats()
                     for shard in sorted(self.shards)]
        stats = {"kind": self.kind, "shards": len(per_shard),
                 "records": sum(s["records"] for s in per_shard),
                 "per_shard": per_shard}
        for key in _SUMMED_STATS:
            if per_shard and key in per_shard[0]:
                stats[key] = sum(s[key] for s in per_shard)
        return stats
