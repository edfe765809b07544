"""Sharded candidate parity: a ShardedIndex of ServingIndex or
DenseCandidateIndex shards must return exactly the unsharded top-k at
every shard count, including after add/remove/replace churn -- the
property the pool's scatter/gather correctness rests on."""

import pytest

from repro.ann import RecordEncoder
from repro.data.records import EntityRecord
from repro.serve import ServingIndex
from repro.serve.dense import DenseCandidateIndex
from repro.serve.shard import ShardedIndex, merge_topk, shard_of

SHARD_COUNTS = (1, 2, 4)


def rec(rid, text):
    return EntityRecord.text_record(rid, text)


@pytest.fixture(scope="module")
def records(dataset):
    return list(dataset.left_table) + list(dataset.right_table)


@pytest.fixture(scope="module")
def queries(dataset):
    return [pair.left for pair in dataset.test[:6]]


def ranking(index, query, k):
    return [(record.record_id, score)
            for record, score in index.candidates(query, k)]


class TestShardOf:
    def test_stable_and_in_range(self):
        for shards in (1, 2, 4, 7):
            for i in range(50):
                shard = shard_of(f"r{i}", shards)
                assert 0 <= shard < shards
                assert shard == shard_of(f"r{i}", shards)  # deterministic

    def test_spreads_ids(self):
        owners = {shard_of(f"r{i}", 4) for i in range(100)}
        assert owners == {0, 1, 2, 3}

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            shard_of("x", 0)


class TestMergeTopk:
    def test_orders_by_score_then_id(self):
        a = [(rec("b", "x"), 0.9), (rec("d", "x"), 0.5)]
        b = [(rec("a", "x"), 0.9), (rec("c", "x"), 0.7)]
        merged = merge_topk([a, b], 3)
        assert [r.record_id for r, _ in merged] == ["a", "b", "c"]

    def test_truncates_to_k(self):
        partial = [(rec(f"r{i}", "x"), 1.0 - i / 10) for i in range(5)]
        assert len(merge_topk([partial], 2)) == 2

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            merge_topk([], 0)


class TestSparseParity:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_topk_identical_to_unsharded(self, records, queries, shards):
        flat = ServingIndex(default_k=5)
        flat.add_many(records)
        sharded = ShardedIndex(lambda: ServingIndex(default_k=5), shards)
        assert sharded.add_many(records) == len({r.record_id
                                                 for r in records})
        assert len(sharded) == len(flat)
        for query in queries:
            for k in (1, 3, 8):
                assert ranking(sharded, query, k) == ranking(flat, query, k)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_parity_survives_churn(self, records, queries, shards):
        flat = ServingIndex(default_k=5)
        sharded = ShardedIndex(lambda: ServingIndex(default_k=5), shards)
        flat.add_many(records)
        sharded.add_many(records)
        # remove every third record, replace every fifth with new values
        for i, record in enumerate(records):
            if i % 3 == 0:
                assert flat.remove(record.record_id) == \
                    sharded.remove(record.record_id)
            elif i % 5 == 0:
                replacement = rec(record.record_id,
                                  f"replacement tokens {i} shared value")
                flat.add(replacement)
                sharded.add(replacement)
        sharded.add(rec("brand-new", "mexican blue habor"))
        flat.add(rec("brand-new", "mexican blue habor"))
        for query in queries:
            assert ranking(sharded, query, 6) == ranking(flat, query, 6)

    def test_catalog_protocol(self, records):
        sharded = ShardedIndex(ServingIndex, 3)
        sharded.add_many(records[:10])
        sample = records[0]
        assert sample.record_id in sharded
        assert sharded.get(sample.record_id) is sample
        assert sharded.get("missing") is None
        assert "missing" not in sharded
        stats = sharded.stats()
        assert stats["shards"] == 3
        assert stats["records"] == len(sharded)
        assert len(stats["per_shard"]) == 3
        assert sum(s["records"] for s in stats["per_shard"]) == len(sharded)


@pytest.fixture(scope="module")
def encoder(backbone):
    lm, tok = backbone
    return RecordEncoder(lm=lm, tokenizer=tok, max_len=32)


def assert_dense_ranking_matches(sharded, flat, query, k):
    """Same ranked ids; scores equal to float32 reduction tolerance.

    Dense scores go through one BLAS gemv per shard
    (``repro.ann.kernels.fused_scaled_dot``) and gemv accumulation order
    depends on the matrix row count, so per-shard scores can differ from
    the unsharded ones in the last ulp (~1e-7).  The codes and scales are
    per-vector and shard-independent -- only the float32 summation order
    is not -- so the *ranking* must still agree.
    """
    got = ranking(sharded, query, k)
    want = ranking(flat, query, k)
    assert [rid for rid, _ in got] == [rid for rid, _ in want]
    for (_, mine), (_, theirs) in zip(got, want):
        assert mine == pytest.approx(theirs, rel=1e-5, abs=1e-6)


class TestDenseParity:
    """LSH shards share seeded hyperplanes and untrained IVF is a flat
    scan, so both partition exactly by record id; scores are compared to
    float32 tolerance (see assert_dense_ranking_matches) and the
    trained-IVF probe caveat is documented in repro/serve/shard.py."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("kind", ["ivf", "lsh"])
    def test_topk_identical_to_unsharded(self, encoder, records, queries,
                                         kind, shards):
        subset = records[:24]
        flat = DenseCandidateIndex(encoder, kind=kind, default_k=4, seed=3)
        flat.add_many(subset)
        sharded = ShardedIndex(lambda: DenseCandidateIndex(
            encoder, kind=kind, default_k=4, seed=3), shards)
        sharded.add_many(subset)
        assert len(sharded) == len(flat)
        for query in queries[:3]:
            for k in (1, 4):
                assert_dense_ranking_matches(sharded, flat, query, k)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_parity_survives_churn(self, encoder, records, queries, shards):
        subset = records[:18]
        flat = DenseCandidateIndex(encoder, kind="lsh", default_k=4, seed=7)
        sharded = ShardedIndex(lambda: DenseCandidateIndex(
            encoder, kind="lsh", default_k=4, seed=7), shards)
        flat.add_many(subset)
        sharded.add_many(subset)
        for i, record in enumerate(subset):
            if i % 4 == 0:
                assert flat.remove(record.record_id) == \
                    sharded.remove(record.record_id)
            elif i % 5 == 0:
                replacement = rec(record.record_id, f"fresh text {i}")
                flat.add(replacement)
                sharded.add(replacement)
        for query in queries[:3]:
            assert_dense_ranking_matches(sharded, flat, query, 5)

    def test_query_embedded_once(self, encoder, records, queries):
        """candidates() routes through one encoder call + the vector
        scatter path (the pool depends on candidates_from_vector)."""
        sharded = ShardedIndex(lambda: DenseCandidateIndex(
            encoder, kind="lsh", default_k=3, seed=1), 2)
        sharded.add_many(records[:12])
        query = queries[0]
        vector = encoder.encode_record(query)
        direct = sharded.candidates_from_vector(vector, 3)
        assert ranking(sharded, query, 3) == [(r.record_id, s)
                                              for r, s in direct]
