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
from repro.serve import (
    MatchServer, ModelBundle, Overloaded, ServerConfig, SharedBundleWeights,
)
from repro.serve.pool import (
    PoolConfig, ServingPool, _approx_tokens, _owned_shards,
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
