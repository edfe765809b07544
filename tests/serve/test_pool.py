"""ServingPool routing: bit-identical scoring across replicas, load-aware
dispatch, explicit backpressure, shard-routed catalog ops, the serial
fallback, and the shared-memory weight store underneath it all."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.data.dataset import CandidatePair
from repro.data.records import EntityRecord
from repro.parallel.pool import force_serial, fork_available
from repro.privacy import ClkConfig, ClkEncoder
from repro.serve import (
    MatchServer, ModelBundle, Overloaded, ServerConfig, SharedBundleWeights,
)
from repro.serve.pool import (
    PoolConfig, ServingPool, _approx_tokens, _owned_shards, _Replica,
)

from .conftest import make_model

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method unavailable")


@pytest.fixture(scope="module")
def catalog(dataset):
    return list(dataset.right_table)


@pytest.fixture(scope="module")
def pool(bundle, catalog):
    config = PoolConfig(replicas=2, shards=3,
                        server=ServerConfig(max_queue=512))
    pool = ServingPool(bundle, config)
    pool.catalog_add(catalog)
    with pool:
        yield pool


class TestPoolConfig:
    def test_shards_default_to_replicas(self):
        assert PoolConfig(replicas=3).shards == 3
        assert PoolConfig(replicas=2, shards=5).shards == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            PoolConfig(replicas=0)
        with pytest.raises(ValueError):
            PoolConfig(replicas=1, shards=0)
        with pytest.raises(ValueError):
            PoolConfig(replicas=1, max_outstanding=0)

    def test_shard_ownership_partitions(self):
        owned = [_owned_shards(r, 2, 5) for r in range(2)]
        assert sorted(owned[0] + owned[1]) == [0, 1, 2, 3, 4]
        assert not set(owned[0]) & set(owned[1])


class TestDispatchPolicy:
    """Router policy, exercised without processes."""

    def _pool_with_fake_replicas(self, bundle, loads):
        pool = ServingPool(bundle, PoolConfig(replicas=len(loads),
                                              max_outstanding=4))

        class Fake:
            def __init__(self, index, pairs, tokens):
                self.index = index
                self.outstanding_pairs = pairs
                self.outstanding_tokens = tokens
                self.live = True

        pool._replicas = [Fake(i, p, t) for i, (p, t) in enumerate(loads)]
        return pool

    def test_picks_least_outstanding_pairs(self, bundle):
        pool = self._pool_with_fake_replicas(bundle, [(2, 10), (1, 99)])
        assert pool._pick_replica().index == 1

    def test_token_estimate_breaks_ties(self, bundle):
        pool = self._pool_with_fake_replicas(bundle, [(1, 50), (1, 10)])
        assert pool._pick_replica().index == 1

    def test_index_breaks_full_ties(self, bundle):
        pool = self._pool_with_fake_replicas(bundle, [(1, 10), (1, 10)])
        assert pool._pick_replica().index == 0

    def test_skips_dead_and_full_replicas(self, bundle):
        pool = self._pool_with_fake_replicas(bundle, [(0, 0), (4, 0), (3, 0)])
        pool._replicas[0].live = False
        assert pool._pick_replica().index == 2  # 0 dead, 1 at the cap
        pool._replicas[2].outstanding_pairs = 4
        assert pool._pick_replica() is None

    def test_approx_tokens_counts_both_records(self):
        pair = CandidatePair(EntityRecord.text_record("a", "one two"),
                             EntityRecord.text_record("b", "three"))
        assert _approx_tokens(pair) == 3

    def test_submit_to_stopped_pool_sheds(self, bundle, pairs):
        pool = ServingPool(bundle, PoolConfig(replicas=1))
        with pytest.raises(Overloaded):
            pool.submit(pairs[0])


@needs_fork
class TestForkedPool:
    def test_runs_replicated(self, pool):
        assert not pool.serial
        assert pool.is_running
        stats = pool.stats()
        assert stats["mode"] == "pool"
        assert stats["live"] == [0, 1]
        assert set(stats["replica_stats"]) == {0, 1}

    def test_scores_match_single_server(self, pool, bundle, pairs):
        """Same probabilities as one MatchServer, to float32 reduction
        tolerance: replicas form their own micro-batches, and batch
        composition changes padding/accumulation shapes in the engine,
        so pool-vs-single equality is not bitwise.  The *bitwise*
        contract is replay of each replica's own logged batches
        (test_pool_swap.py, benchmarks/bench_serving_pool.py)."""
        reference = MatchServer(bundle, ServerConfig())
        responses = pool.score_batch(pairs)
        expected = reference.score_batch(pairs)
        for got, want in zip(responses, expected):
            assert np.allclose(got.probs, want.probs, rtol=1e-5, atol=1e-7)
            assert got.prediction == want.prediction
        assert all(r.replica in (0, 1) for r in responses)

    def test_load_spreads_across_replicas(self, pool, pairs):
        pendings = [pool.submit(pair) for pair in list(pairs) * 4]
        replicas = {p.result(timeout=30.0).replica for p in pendings}
        assert replicas == {0, 1}

    def test_match_merges_shards_like_unsharded(self, pool, bundle, catalog,
                                                pairs):
        reference = MatchServer(bundle, ServerConfig())
        reference.catalog_add(catalog)
        got = pool.match(pairs[0].left, k=4, timeout=30.0)
        want = reference.match(pairs[0].left, k=4)
        assert [c.record.record_id for c in got.candidates] == \
            [c.record.record_id for c in want.candidates]
        assert [c.block_score for c in got.candidates] == \
            [c.block_score for c in want.candidates]
        for mine, theirs in zip(got.candidates, want.candidates):
            # match fans candidates into batches whose composition depends
            # on shard placement -> float32 tolerance, not bitwise
            assert np.allclose(mine.response.probs, theirs.response.probs,
                               rtol=1e-5, atol=1e-7)

    def test_catalog_churn_routes_to_shards(self, pool, pairs):
        fresh = EntityRecord.text_record(
            "pool-test-rec", "blue habor mexican restaurant new york")
        assert pool.catalog_add([fresh]) == 1
        assert pool.catalog_size() == 75 + 1
        found = pool.match(fresh, k=3, timeout=30.0)
        assert found.candidates
        assert found.candidates[0].record.record_id == "pool-test-rec"
        assert pool.catalog_remove(["pool-test-rec", "missing-id"]) == 1
        gone = pool.match(fresh, k=3, timeout=30.0)
        assert all(c.record.record_id != "pool-test-rec"
                   for c in gone.candidates)

    def test_replicas_pin_one_blas_thread(self, bundle, tmp_path):
        """With the thread variables unset, OpenBLAS starts one thread per
        core; each replica pins itself to one after fork."""
        bundle.save(tmp_path / "bundle")
        script = ("import json, sys\n"
                  "from repro.serve import ModelBundle\n"
                  "from repro.serve.pool import PoolConfig, ServingPool\n"
                  "bundle = ModelBundle.load(sys.argv[1])\n"
                  "with ServingPool(bundle, PoolConfig(replicas=1)) as pool:\n"
                  "    stats = pool.stats()\n"
                  "print(json.dumps([stats['mode'], "
                  "stats['replica_stats'][0]['blas_threads']]))\n")
        env = {name: value for name, value in os.environ.items()
               if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        env["PYTHONPATH"] = src
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "bundle")],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        mode, threads = json.loads(done.stdout.splitlines()[-1])
        assert mode == "pool"
        if threads is None:
            pytest.skip("numpy ships no OpenBLAS thread setter")
        assert threads == 1

    def test_stats_counts_requests(self, pool, pairs):
        before = pool.stats()
        pool.score(pairs[0], timeout=30.0)
        after = pool.stats()
        assert after["requests"] >= before["requests"] + 1
        assert after["responses"] >= before["responses"] + 1
        assert after["catalog_records"] == pool.catalog_size()


class TestSerialFallback:
    def test_full_surface_without_fork(self, backbone, bundle, catalog,
                                       pairs):
        with force_serial():
            pool = ServingPool(bundle, PoolConfig(replicas=2, shards=3))
            pool.catalog_add(catalog)
            with pool:
                assert pool.serial
                response = pool.score(pairs[0], timeout=30.0)
                assert response.replica is None
                match = pool.match(pairs[0].left, k=3, timeout=30.0)
                assert match.candidates
                stats = pool.stats()
                assert stats["mode"] == "serial"
                assert stats["shards"] == 3
                other = ModelBundle.from_model(make_model(backbone),
                                               threshold=0.5, name="b2")
                assert pool.swap(other) == 2
                assert pool.score(pairs[0], timeout=30.0).bundle_name == "b2"
            assert not pool.is_running

    def test_serial_matches_unsharded_candidates(self, bundle, catalog,
                                                 pairs):
        reference = MatchServer(bundle, ServerConfig())
        reference.catalog_add(catalog)
        with force_serial():
            pool = ServingPool(bundle, PoolConfig(replicas=1, shards=4))
            pool.catalog_add(catalog)
            with pool:
                got = pool.match(pairs[1].left, k=5, timeout=30.0)
        want = reference.match(pairs[1].left, k=5)
        assert [c.record.record_id for c in got.candidates] == \
            [c.record.record_id for c in want.candidates]


class TestSerialClkEncoding:
    def test_one_encoding_per_record(self, bundle, catalog, monkeypatch):
        """The router encodes each added record once: the serial server's
        CLK shards hold filters only, so neither start() nor a live add
        encodes again, and no plaintext record sits in a CLK index."""
        encoded = []
        depth = []  # nesting: encode_records calls encode_record per row
        many, one = ClkEncoder.encode_records, ClkEncoder.encode_record

        def encode_records(self, records):
            records = list(records)
            if not depth:
                encoded.extend(record.record_id for record in records)
            depth.append(1)
            try:
                return many(self, records)
            finally:
                depth.pop()

        def encode_record(self, record):
            if not depth:
                encoded.append(record.record_id)
            depth.append(1)
            try:
                return one(self, record)
            finally:
                depth.pop()

        monkeypatch.setattr(ClkEncoder, "encode_records", encode_records)
        monkeypatch.setattr(ClkEncoder, "encode_record", encode_record)
        records = catalog[:5]
        encoder = ClkEncoder("pool-salt", ClkConfig(nbits=256, num_hashes=8))
        with force_serial():
            pool = ServingPool(bundle, PoolConfig(replicas=2, shards=3),
                               clk_encoder=encoder)
            pool.catalog_add(records[:3])  # journaled before start
            with pool:
                assert pool.serial
                assert len(encoded) == 3  # start() encoded nothing
                pool.catalog_add(records[3:])
                stats = pool.stats()
        assert sorted(encoded) == sorted(r.record_id for r in records)
        clk_index = stats["replica_stats"][0]["clk_index"]
        assert clk_index["records"] == len(records)
        assert clk_index["plaintext_records"] == 0
        assert stats["clk_catalog_records"] == len(records)


def run_script(pool, catalog, filters):
    """One scripted session; returns what a client can observe."""
    seen = {}
    pool.catalog_add(catalog)
    pool.catalog_add([EntityRecord.text_record(
        catalog[0].record_id, "blue habor mexican restaurant new york")])
    seen["removed"] = pool.catalog_remove([catalog[1].record_id, "ghost"])
    seen["matches"] = [pool.match(record, k=4, timeout=60.0)
                       for record in (catalog[0], catalog[2], catalog[5])]
    seen["clk_added"] = pool.catalog_add_clk(filters)
    seen["clk"] = [pool.clk_match(rid, filt, k=3) for rid, filt in filters]
    seen["clk_removed"] = pool.catalog_remove([filters[0][0]])
    seen["clk"].append(pool.clk_match("q", filters[0][1], k=len(filters)))
    pool.set_candidate_mode("clk")
    stats = pool.stats()
    seen["modes"] = (pool.health()["candidate_index"],
                     {s["candidate_mode"]
                      for s in stats["replica_stats"].values()})
    pool.set_candidate_mode("sparse")
    seen["matches"].append(pool.match(catalog[3], k=4, timeout=60.0))
    stats = pool.stats()
    seen["stats"] = {key: stats[key] for key in (
        "requests", "responses", "catalog_records", "clk_catalog_records")}
    return seen


@needs_fork
class TestSerialEqualsForked:
    def test_same_session_same_answers(self, bundle, catalog, monkeypatch):
        """The serial fallback and forked replicas are one executor type
        behind one router: a scripted session answers the same in both,
        and the router only ever sends a replica score/call/stop."""
        encoder = ClkEncoder("pool-salt", ClkConfig(nbits=256, num_hashes=8))
        filters = [(f"c{i}", encoder.encode_record(record))
                   for i, record in enumerate(catalog[:6])]
        kinds = set()
        send = _Replica.send

        def recording_send(self, message):
            kinds.add(message[0])
            send(self, message)

        monkeypatch.setattr(_Replica, "send", recording_send)

        def session():
            config = PoolConfig(replicas=2, shards=3,
                                server=ServerConfig(max_queue=512))
            pool = ServingPool(bundle, config, clk_words=encoder.config.words,
                               clk_threshold=0.6)
            with pool:
                return pool.serial, run_script(pool, catalog, filters)

        with force_serial():
            serial_mode, serial = session()
        forked_mode, forked = session()
        assert serial_mode and not forked_mode
        assert kinds == {"score", "call", "stop"}

        for key in ("removed", "clk_added", "clk_removed", "modes", "stats"):
            assert serial[key] == forked[key], key
        assert serial["modes"] == ("clk", {"clk"})
        for mine, theirs in zip(serial["clk"], forked["clk"]):
            assert mine == theirs  # ids, Dice scores, match flags
        assert len(serial["matches"]) == len(forked["matches"]) == 4
        for mine, theirs in zip(serial["matches"], forked["matches"]):
            def by_id(response):
                return {c.record.record_id: c for c in response.candidates}

            got, want = by_id(mine), by_id(theirs)
            assert got and set(got) == set(want)
            for rid in got:
                assert got[rid].block_score == want[rid].block_score
                np.testing.assert_allclose(got[rid].response.probs,
                                           want[rid].response.probs,
                                           rtol=1e-5, atol=1e-6)


@needs_fork
class TestShardlessReplica:
    def test_match_scatters_skip_a_replica_without_shards(
            self, bundle, catalog, monkeypatch):
        """With more replicas than shards, replica 1 owns no shard: a
        match and a clk_match send it no ``call`` (it could only answer
        an empty list), and both still find their candidates."""
        encoder = ClkEncoder("pool-salt", ClkConfig(nbits=256, num_hashes=8))
        filters = [(record.record_id, encoder.encode_record(record))
                   for record in catalog[:6]]
        sent = []
        send = _Replica.send

        def recording_send(self, message):
            sent.append((self.index, message[0]))
            send(self, message)

        monkeypatch.setattr(_Replica, "send", recording_send)
        pool = ServingPool(bundle, PoolConfig(replicas=2, shards=1),
                           clk_words=encoder.config.words)
        pool.catalog_add(catalog)
        with pool:
            assert not pool.serial
            pool.catalog_add_clk(filters)
            del sent[:]
            matched = pool.match(catalog[0], k=3, timeout=60.0)
            clk = pool.clk_match("q", filters[0][1], k=3)
            calls = [index for index, kind in sent if kind == "call"]
        assert matched.candidates
        assert clk.candidates[0].record_id == filters[0][0]
        assert calls == [0, 0]


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="no /dev/shm on this platform")
class TestSharedMemoryCleanup:
    def test_drained_stop_leaves_no_segment(self, backbone, bundle, pairs):
        before = set(os.listdir("/dev/shm"))
        pool = ServingPool(bundle, PoolConfig(replicas=2, shards=2))
        pool.start()
        pool.score(pairs[0], timeout=30.0)
        pool.swap(ModelBundle.from_model(make_model(backbone),
                                         threshold=0.5, name="b2"))
        pool.score(pairs[1], timeout=30.0)
        pool.stop(drain=True)
        assert not pool.is_running
        assert set(os.listdir("/dev/shm")) - before == set()


class TestSharedBundleWeights:
    @pytest.fixture()
    def models(self, backbone, tmp_path):
        publisher = make_model(backbone)
        bundle = ModelBundle.from_model(publisher, threshold=0.4, name="pub")
        bundle.save(tmp_path / "b")
        replica = ModelBundle.load(tmp_path / "b").model
        return publisher, replica

    def test_publish_adopt_roundtrip(self, models):
        publisher, replica = models
        with SharedBundleWeights(publisher, replicas=1) as store:
            assert store.version == 0
            assert store.publish(publisher, name="pub", threshold=0.4) == 1
            assert store.read_meta(1) == ("pub", 0.4)
            version = store.adopt(replica, replica=0, seen=0)
            assert version == 1
            assert store.adopted_versions() == [1]
            for (_, mine), (_, theirs) in zip(replica.named_parameters(),
                                              publisher.named_parameters()):
                assert np.array_equal(mine.data, theirs.data)

    def test_adopted_views_are_zero_copy(self, models):
        publisher, replica = models
        with SharedBundleWeights(publisher, replicas=1) as store:
            store.publish(publisher)
            store.adopt(replica, replica=0, seen=0)
            _, first = next(iter(replica.named_parameters()))
            assert first.data.base is not None  # a view, not a copy
            slot_view = store.slot_views(1)[0]
            slot_view += 1.0  # mutate through the store...
            assert np.array_equal(first.data, slot_view)  # ...model sees it

    def test_adopt_is_noop_at_same_version(self, models):
        publisher, replica = models
        with SharedBundleWeights(publisher, replicas=1) as store:
            store.publish(publisher)
            assert store.adopt(replica, replica=0, seen=1) == 1

    def test_double_buffer_guard_times_out_on_stuck_replica(self, models):
        publisher, replica = models
        with SharedBundleWeights(publisher, replicas=1,
                                 guard_timeout_s=0.05) as store:
            store.publish(publisher, live=[0])   # v1 -> slot 1
            store.publish(publisher, live=[0])   # v2 -> slot 0, no guard yet
            # v3 reuses slot 1; replica never adopted past 0 -> guard must
            # give up after its timeout instead of deadlocking the swap
            assert store.publish(publisher, live=[0]) == 3

    def test_threshold_none_roundtrips(self, models):
        publisher, _ = models
        with SharedBundleWeights(publisher, replicas=1) as store:
            store.publish(publisher, name="x", threshold=None)
            assert store.read_meta(1) == ("x", None)

    def test_fingerprint_mismatch_rejected(self, models, backbone):
        publisher, _ = models
        with SharedBundleWeights(publisher, replicas=1) as store:
            other = make_model(backbone, max_len=48)
            # same architecture -> same fingerprint, accepted
            store.publish(other)

            class Tiny:
                def named_parameters(self):
                    class P:
                        data = np.zeros((2, 2), dtype=np.float64)
                    return [("only.weight", P())]

                def parameters(self):
                    return [p for _, p in self.named_parameters()]

            with pytest.raises(ValueError, match="fingerprint"):
                store.publish(Tiny())

    def test_validation(self, models):
        publisher, _ = models
        with pytest.raises(ValueError):
            SharedBundleWeights(publisher, replicas=0)
        with pytest.raises(ValueError):
            SharedBundleWeights(publisher, replicas=1, slots=1)
