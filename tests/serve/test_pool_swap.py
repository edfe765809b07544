"""Pool-wide hot-swap contract: one shared-memory publish flips every
replica, and no response anywhere in the pool ever mixes model versions
within a batch -- proven by replaying every replica's logged batches
offline and requiring bit-identical probabilities."""

import numpy as np
import pytest

from repro.infer import EngineConfig, InferenceEngine
from repro.parallel.pool import fork_available
from repro.serve import ModelBundle, ServerConfig
from repro.serve.pool import PoolConfig, ServingPool

from .conftest import make_model

pytestmark = pytest.mark.skipif(not fork_available(),
                                reason="fork start method unavailable")


@pytest.fixture(scope="module")
def two_bundles(backbone, tmp_path_factory):
    model_a = make_model(backbone)
    bundle_a = ModelBundle.from_model(model_a, threshold=0.5, name="a")
    path = tmp_path_factory.mktemp("pool_bundles") / "b"
    bundle_a.save(path)
    bundle_b = ModelBundle.load(path)
    bundle_b.name = "b"
    for parameter in bundle_b.model.parameters():
        parameter.data += 0.05
    return bundle_a, bundle_b


class TestPoolSwap:
    def test_swap_reaches_every_replica(self, two_bundles, pairs):
        bundle_a, bundle_b = two_bundles
        pool = ServingPool(bundle_a, PoolConfig(replicas=2, shards=2))
        with pool:
            assert pool.version == 1
            version = pool.swap(bundle_b)
            assert version == 2
            # both replicas must answer with the new version
            seen = {}
            deadline = 60.0
            import time
            end = time.monotonic() + deadline
            while set(seen) != {0, 1} and time.monotonic() < end:
                for response in pool.score_batch(list(pairs)[:8],
                                                 timeout=30.0):
                    if response.model_version == version:
                        seen[response.replica] = response.bundle_name
            assert set(seen) == {0, 1}
            assert set(seen.values()) == {"b"}

    def test_exactly_one_version_per_response_pool_wide(self, two_bundles,
                                                        pairs):
        """Stream bursts across both replicas while swapping mid-flight;
        every logged batch on every replica must replay bit-identically
        under the single bundle its responses name."""
        bundle_a, bundle_b = two_bundles
        config = ServerConfig(max_batch_pairs=4, token_budget=512,
                              max_queue=4096, record_batches=True)
        pool = ServingPool(bundle_a, PoolConfig(replicas=2, shards=2,
                                                server=config))
        pairs = list(pairs)
        pendings = []
        with pool:
            for round_ in range(6):
                round_pendings = []
                for pair in pairs:
                    pending = pool.submit(pair)
                    pendings.append(pending)
                    round_pendings.append(pending)
                pool.swap(two_bundles[round_ % 2])
                for pending in round_pendings:
                    pending.result(timeout=60.0)
            responses = [pending.result(timeout=0.0)
                         for pending in pendings]
            assert len(responses) == 6 * len(pairs)

            versions = {response.model_version for response in responses}
            assert len(versions) > 1, "swaps should land mid-stream"
            names = {response.bundle_name for response in responses}
            assert names <= {"a", "b"}

            logs = pool.batch_logs()
            assert set(logs) == {0, 1}

        by_batch = {}
        for response in responses:
            by_batch.setdefault((response.replica, response.batch_id),
                                []).append(response)

        engine = InferenceEngine(EngineConfig(
            token_budget=config.token_budget,
            max_batch_pairs=config.max_batch_pairs,
            cache_capacity=config.cache_capacity))
        model_by_name = {"a": bundle_a.model, "b": bundle_b.model}
        replayed_batches = 0
        for replica, entries in logs.items():
            for entry in entries:
                batch_responses = by_batch.get((replica, entry["batch_id"]))
                if batch_responses is None:
                    continue  # a batch of another test's leftover traffic
                names = {r.bundle_name for r in batch_responses}
                versions = {r.model_version for r in batch_responses}
                assert len(names) == 1 and len(versions) == 1, \
                    "a batch mixed model versions"
                assert versions == {entry["version"]}
                replayed = engine.predict_proba(model_by_name[names.pop()],
                                                entry["pairs"])
                got = np.stack(sorted((r.probs for r in batch_responses),
                                      key=lambda p: tuple(p)))
                # the logged batch may contain more pairs than this test's
                # responses only if batches interleaved with other traffic;
                # here the pool is private, so sizes must line up
                assert len(replayed) == len(batch_responses)
                expected = np.stack(sorted(replayed, key=lambda p: tuple(p)))
                assert np.array_equal(got, expected)
                replayed_batches += 1
        assert replayed_batches >= 2

    def test_swap_keeps_threshold_and_name(self, two_bundles, pairs):
        bundle_a, bundle_b = two_bundles
        pool = ServingPool(bundle_a, PoolConfig(replicas=1, shards=1))
        with pool:
            pool.swap(bundle_b)
            import time
            end = time.monotonic() + 60.0
            response = pool.score(pairs[0], timeout=30.0)
            while response.model_version < 2 and time.monotonic() < end:
                response = pool.score(pairs[0], timeout=30.0)
            assert response.model_version == 2
            assert response.bundle_name == "b"
