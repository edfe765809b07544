"""MatchServer: micro-batch formation, bit-identity, backpressure."""

import threading

import numpy as np
import pytest

from repro.data.dataset import CandidatePair
from repro.infer import EngineConfig, InferenceEngine
from repro.serve import MatchServer, Overloaded, ServerConfig, ServingIndex


def offline_engine(config: ServerConfig) -> InferenceEngine:
    return InferenceEngine(EngineConfig(
        token_budget=config.token_budget,
        max_batch_pairs=config.max_batch_pairs,
        cache_capacity=config.cache_capacity))


class TestConfig:
    def test_invalid_knobs_rejected(self):
        for kwargs in ({"max_queue": 0}, {"max_batch_pairs": 0},
                       {"token_budget": 0}):
            with pytest.raises(ValueError):
                ServerConfig(**kwargs)


class TestSynchronousDriver:
    def test_score_batch_bit_identical_to_offline_replay(self, bundle, pairs):
        """Served probabilities must equal an offline engine replaying the
        same micro-batches -- the acceptance contract of the subsystem."""
        config = ServerConfig(max_batch_pairs=4, token_budget=512,
                              record_batches=True)
        server = MatchServer(bundle, config)
        pairs = list(pairs)
        responses = server.score_batch(pairs)
        assert len(responses) == len(pairs)
        assert server.batch_log, "record_batches must keep the batch log"

        position = {id(pair): i for i, pair in enumerate(pairs)}
        engine = offline_engine(config)
        replayed_rows = 0
        for entry in server.batch_log:
            replayed = engine.predict_proba(bundle.model, entry["pairs"])
            for row, pair in enumerate(entry["pairs"]):
                response = responses[position[id(pair)]]
                assert np.array_equal(response.probs, replayed[row])
                replayed_rows += 1
        assert replayed_rows == len(pairs)

    def test_predictions_use_bundle_threshold(self, bundle, pairs):
        server = MatchServer(bundle, ServerConfig(max_batch_pairs=8))
        responses = server.score_batch(list(pairs))
        for response in responses:
            expected = int(response.probs[1] > bundle.threshold)
            assert response.prediction == expected
            assert response.model_version == 1
            assert response.bundle_name == "tiny"

    def test_single_score_roundtrip(self, bundle, pairs):
        server = MatchServer(bundle)
        response = server.score(pairs[0])
        assert response.batch_size == 1
        assert 0.0 <= response.match_probability <= 1.0

    def test_max_batch_pairs_respected(self, bundle, pairs):
        config = ServerConfig(max_batch_pairs=3, token_budget=10_000)
        server = MatchServer(bundle, config)
        responses = server.score_batch(list(pairs))
        assert max(r.batch_size for r in responses) <= 3

    def test_token_budget_splits_batches(self, bundle, pairs):
        """A budget below rows x longest-encoding forces multi-batch."""
        config = ServerConfig(max_batch_pairs=32, token_budget=200)
        server = MatchServer(bundle, config)
        responses = server.score_batch(list(pairs))
        assert len({r.batch_id for r in responses}) > 1

    def test_stats_counts(self, bundle, pairs):
        server = MatchServer(bundle, ServerConfig(max_batch_pairs=4))
        server.score_batch(list(pairs))
        stats = server.stats()
        assert stats["requests"] == len(pairs)
        assert stats["responses"] == len(pairs)
        assert stats["queue_depth"] == 0
        assert stats["shed"] == 0
        assert stats["model_version"] == 1
        assert stats["batches"] >= 1


class TestBackpressure:
    def test_overloaded_when_queue_full(self, bundle, pairs):
        server = MatchServer(bundle, ServerConfig(max_queue=2))
        server.submit(pairs[0])
        server.submit(pairs[1])
        with pytest.raises(Overloaded) as excinfo:
            server.submit(pairs[2])
        assert excinfo.value.queue_depth == 2
        assert server.shed_count == 1
        # draining makes room again
        while server.process_once():
            pass
        server.submit(pairs[2])

    def test_group_admission_all_or_nothing(self, bundle, pairs, dataset):
        """A match query only enters the queue if all its candidate pairs
        fit; a partial group would deadlock the aggregate future."""
        index = ServingIndex()
        index.add_many(dataset.right_table)
        server = MatchServer(bundle, ServerConfig(max_queue=2), index=index)
        record = dataset.left_table.records[0]
        k = len(index.candidates(record, k=5))
        if k <= 2:
            pytest.skip("need >2 candidates to exercise group shedding")
        with pytest.raises(Overloaded):
            server.submit_match(record, k=k)
        assert server.stats()["queue_depth"] == 0

    def test_stopped_server_sheds(self, bundle, pairs):
        server = MatchServer(bundle)
        server.start()
        server.stop()
        with pytest.raises(Overloaded):
            server.submit(pairs[0])


class TestMatchQueries:
    def test_match_ranks_candidates(self, bundle, dataset):
        index = ServingIndex()
        index.add_many(dataset.right_table)
        server = MatchServer(bundle, ServerConfig(max_batch_pairs=8),
                             index=index)
        record = dataset.left_table.records[0]
        response = server.match(record, k=4)
        assert response.record_id == record.record_id
        assert response.candidates
        probs = [c.probability for c in response.candidates]
        assert probs == sorted(probs, reverse=True)
        assert response.best is response.candidates[0]
        for candidate in response.matches():
            assert candidate.is_match

    def test_match_without_candidates_resolves_empty(self, bundle):
        from repro.data.records import EntityRecord

        server = MatchServer(bundle)
        response = server.match(
            EntityRecord.text_record("q", "zzqx wvut nothing"))
        assert response.candidates == [] and response.best is None


class TestThreadedMode:
    def test_threaded_scoring_matches_sync(self, bundle, pairs):
        config = ServerConfig(max_batch_pairs=4, token_budget=512)
        sync_server = MatchServer(bundle, config)
        expected = [r.probs for r in sync_server.score_batch(list(pairs))]

        with MatchServer(bundle, config) as server:
            pendings = [server.submit(pair) for pair in pairs]
            got = [p.result(timeout=30.0).probs for p in pendings]
        # batch composition may differ under the scheduler's timing, so
        # compare numerically rather than bitwise here (bitwise identity
        # per identical batch is pinned above and in the benchmark)
        assert np.allclose(np.array(got), np.array(expected), atol=1e-5)

    def test_stop_drains_queue(self, bundle, pairs):
        server = MatchServer(bundle, ServerConfig(max_batch_pairs=4))
        server.start()
        pendings = [server.submit(pair) for pair in pairs]
        server.stop(drain=True)
        for pending in pendings:
            assert pending.result(timeout=1.0) is not None

    def test_stop_without_drain_fails_pending(self, bundle, pairs):
        server = MatchServer(bundle)
        # not started: queue requests, then stop without draining
        pending = server.submit(pairs[0])
        server.stop(drain=False)
        with pytest.raises(Overloaded):
            pending.result(timeout=1.0)


class TestScheduler:
    """Batch formation never waits on a clock: a batch is what queued
    while the previous one was scored. Driven by events, no sleeps."""

    def test_lone_request_never_waits_on_a_timer(self, bundle, pairs):
        timeouts = []

        class RecordingCondition(threading.Condition):
            def wait(self, timeout=None):
                timeouts.append(timeout)
                return super().wait(timeout)

        server = MatchServer(bundle)
        server._cond = RecordingCondition()
        with server:
            response = server.submit(pairs[0]).result(timeout=30.0)
        assert response.batch_size == 1
        assert all(timeout is None for timeout in timeouts), timeouts

    def test_requests_queued_during_a_forward_share_the_next_batch(
            self, bundle, pairs):
        server = MatchServer(bundle, ServerConfig(max_batch_pairs=8))
        real = server.engine.predict_proba
        scoring, release = threading.Event(), threading.Event()

        def gated(model, batch):
            scoring.set()
            assert release.wait(timeout=30.0)
            return real(model, batch)

        server.engine.predict_proba = gated
        with server:
            first = server.submit(pairs[0])
            assert scoring.wait(timeout=30.0)
            queued = [server.submit(pair) for pair in pairs[1:4]]
            release.set()
            alone = first.result(timeout=30.0)
            together = [pending.result(timeout=30.0) for pending in queued]
        assert alone.batch_size == 1
        assert len({response.batch_id for response in together}) == 1
        assert all(response.batch_size == 3 for response in together)


class TestFailureContainment:
    """One bad request or batch must never take the scheduler down with it
    (REVIEW: a raising process_once used to kill the daemon thread)."""

    def test_scheduler_survives_batch_error(self, bundle, pairs):
        server = MatchServer(bundle)
        real = server.engine.predict_proba
        armed = {"boom": True}

        def flaky(model, batch):
            if armed["boom"]:
                armed["boom"] = False
                raise RuntimeError("scoring exploded")
            return real(model, batch)

        server.engine.predict_proba = flaky
        with server:
            bad = server.submit(pairs[0])
            with pytest.raises(RuntimeError):
                bad.result(timeout=10.0)
            # the scheduler thread must still be alive and serving
            good = server.submit(pairs[1])
            assert good.result(timeout=10.0).probs.shape == (2,)
        assert server.error_count >= 1
        assert server.stats()["errors"] >= 1

    def test_unencodable_request_fails_individually(self, bundle, pairs):
        from repro.data.records import EntityRecord

        server = MatchServer(bundle)
        real = server.engine.encodings

        def picky(model, batch):
            if any(p.left.record_id == "poison" for p in batch):
                raise ValueError("cannot encode")
            return real(model, batch)

        server.engine.encodings = picky
        poison = CandidatePair(EntityRecord.text_record("poison", "boom"),
                               pairs[0].right)
        bad = server.submit(poison)
        good = server.submit(pairs[0])
        while not good.done():
            server.process_once()
        with pytest.raises(ValueError):
            bad.result(timeout=0)
        assert good.result(timeout=0).prediction in (0, 1)
        assert server.error_count == 1

    def test_stop_drain_survives_batch_error(self, bundle, pairs):
        server = MatchServer(bundle, ServerConfig(max_batch_pairs=1))
        real = server.engine.predict_proba
        armed = {"boom": True}

        def flaky(model, batch):
            if armed["boom"]:
                armed["boom"] = False
                raise RuntimeError("scoring exploded")
            return real(model, batch)

        server.engine.predict_proba = flaky
        bad = server.submit(pairs[0])
        good = server.submit(pairs[1])
        server.stop(drain=True)
        with pytest.raises(RuntimeError):
            bad.result(timeout=0)
        assert good.result(timeout=0).probs.shape == (2,)


    def test_stop_drain_survives_persistent_pre_batch_failure(
            self, bundle, pairs):
        # a failure that precedes batch formation (e.g. a replica's
        # snapshot/adopt raising) makes no progress on the queue;
        # stop(drain=True) used to spin on it forever at 100% CPU
        server = MatchServer(bundle, ServerConfig(max_batch_pairs=4))
        pending = server.submit(pairs[0])

        def broken_snapshot():
            raise RuntimeError("adopt failed")

        server._snapshot = broken_snapshot
        server.stop(drain=True)  # must return, failing the queue
        with pytest.raises(RuntimeError, match="adopt failed"):
            pending.result(timeout=1.0)
        assert server.error_count >= 1


class TestContentAddressedCache:
    """Replacing a record under an existing id must never be served a
    stale cached encoding (REVIEW: keys used to be id-only)."""

    def test_replaced_record_same_id_not_served_stale(self, bundle, dataset):
        from repro.data.records import EntityRecord

        left = dataset.left_table.records[0]
        right_a = dataset.right_table.records[0]
        donor = dataset.right_table.records[1]
        right_b = EntityRecord(record_id=right_a.record_id,
                               kind=right_a.kind,
                               values=dict(donor.values))

        server = MatchServer(bundle)
        server.score(CandidatePair(left, right_a))  # warms the cache
        served = server.score(CandidatePair(left, right_b))
        fresh = MatchServer(bundle).score(CandidatePair(left, right_b))
        assert np.array_equal(served.probs, fresh.probs)
