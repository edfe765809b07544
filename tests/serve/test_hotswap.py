"""Hot-swap contract: every in-flight request is answered by exactly one
model version, nothing is dropped, nothing is double-answered."""

import numpy as np
import pytest

from repro.infer import EngineConfig, InferenceEngine
from repro.serve import MatchServer, ModelBundle, Overloaded, ServerConfig

from .conftest import make_model


@pytest.fixture(scope="module")
def two_bundles(backbone, tmp_path_factory):
    """Two bundles whose probabilities differ on every pair: the second is
    the first with its classification head perturbed via a save/load copy."""
    model_a = make_model(backbone)
    bundle_a = ModelBundle.from_model(model_a, threshold=0.5, name="a")

    path = tmp_path_factory.mktemp("bundles") / "b"
    bundle_a.save(path)
    bundle_b = ModelBundle.load(path)
    bundle_b.name = "b"
    for parameter in bundle_b.model.parameters():
        parameter.data += 0.05  # distinguishable, still finite probabilities
    return bundle_a, bundle_b


class TestSwap:
    def test_swap_bumps_version(self, two_bundles):
        bundle_a, bundle_b = two_bundles
        server = MatchServer(bundle_a)
        assert server.version == 1
        assert server.swap(bundle_b) == 2
        assert server.version == 2
        assert server.bundle.name == "b"

    def test_responses_switch_with_version(self, two_bundles, pairs):
        bundle_a, bundle_b = two_bundles
        server = MatchServer(bundle_a, ServerConfig(max_batch_pairs=4))
        before = server.score(pairs[0])
        server.swap(bundle_b)
        after = server.score(pairs[0])
        assert before.model_version == 1 and before.bundle_name == "a"
        assert after.model_version == 2 and after.bundle_name == "b"
        assert not np.array_equal(before.probs, after.probs)


class TestInFlightConsistency:
    def test_exactly_one_version_per_response(self, two_bundles, pairs):
        """Stream requests while swapping concurrently; each response must
        carry probabilities computed by exactly the model whose version it
        reports, every request answered exactly once."""
        bundle_a, bundle_b = two_bundles
        config = ServerConfig(max_batch_pairs=4, token_budget=512,
                              max_queue=4096, record_batches=True)
        server = MatchServer(bundle_a, config)
        pairs = list(pairs)

        pendings = []
        with server:
            # each round: submit a burst, swap while the scheduler drains
            # it, then wait for the round before the next one. Responses of
            # round r carry version r+1 or r+2 (depending on where the swap
            # landed relative to each batch), so distinct rounds are
            # guaranteed to observe distinct versions.
            for round_ in range(8):
                round_pendings = []
                for pair in pairs:
                    pending = server.submit(pair)
                    pendings.append((pair, pending))
                    round_pendings.append(pending)
                server.swap(two_bundles[round_ % 2])
                for pending in round_pendings:
                    pending.result(timeout=30.0)
        # server context exit drains: every pending must now be resolved
        responses = []
        for pair, pending in pendings:
            assert pending.done(), "request dropped during hot swap"
            responses.append((pair, pending.result(timeout=0.0)))
        assert len(responses) == 8 * len(pairs)
        assert server.response_count == len(responses)
        assert server.request_count == len(responses)

        versions = {response.model_version for _, response in responses}
        assert len(versions) > 1, "swaps should land mid-stream"

        # replay every logged batch offline with the bundle named in the
        # response: bit-identical probabilities prove single-version batches
        engine = InferenceEngine(EngineConfig(
            token_budget=config.token_budget,
            max_batch_pairs=config.max_batch_pairs,
            cache_capacity=config.cache_capacity))
        by_batch = {}
        for (pair, pending), (_, response) in zip(pendings, responses):
            by_batch.setdefault(response.batch_id, []).append(response)
        model_by_name = {"a": bundle_a.model, "b": bundle_b.model}
        for entry in server.batch_log:
            batch_responses = by_batch[entry["batch_id"]]
            names = {r.bundle_name for r in batch_responses}
            versions = {r.model_version for r in batch_responses}
            assert len(names) == 1 and len(versions) == 1
            assert versions == {entry["version"]}
            model = model_by_name[names.pop()]
            replayed = engine.predict_proba(model, entry["pairs"])
            got = np.stack(sorted((r.probs for r in batch_responses),
                                  key=lambda p: tuple(p)))
            expected = np.stack(sorted(replayed, key=lambda p: tuple(p)))
            assert np.array_equal(got, expected)

    def test_double_resolution_raises(self, two_bundles, pairs):
        from repro.serve import PendingResponse, ScoreResponse

        pending = PendingResponse()
        response = ScoreResponse(
            probs=np.array([0.3, 0.7]), prediction=1, model_version=1,
            bundle_name="a", batch_id=0, batch_size=1,
            queue_seconds=0.0, service_seconds=0.0)
        pending._resolve(response)
        with pytest.raises(RuntimeError):
            pending._resolve(response)
        with pytest.raises(RuntimeError):
            pending._fail(Overloaded("late"))
