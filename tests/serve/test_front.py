"""The serving front: MatchServer and ServingPool share one public surface
(defined once, on ServingFront), a stopped front never spins, and a pool's
serial and forked executors fail alike -- an executor's error reaches the
caller, and a rejected CLK write leaves the catalog as it was."""

import base64
import json
import threading
import urllib.error
import urllib.request
from contextlib import nullcontext

import numpy as np
import pytest

from repro.data.records import EntityRecord
from repro.parallel.pool import force_serial, fork_available
from repro.privacy import ClkCandidateIndex, clk_to_bytes
from repro.serve import (
    MatchHTTPServer, MatchServer, Overloaded, ServerConfig, ServingFront,
)
from repro.serve.pool import PoolConfig, ServingPool

#: packed words of the CLK catalogs below; queries of WORDS - 1 are bad
WORDS = 4

SHARED = ("submit", "submit_match", "clk_match", "score", "score_batch",
          "match", "candidate_mode", "slo_snapshot", "__enter__",
          "__exit__", "_check_tenant", "health", "stats",
          "metrics_snapshot", "version", "bundle", "_check_mode")


def filters(count, words=WORDS, seed=0):
    rng = np.random.default_rng(seed)
    return [(f"c{i}", rng.integers(0, 2 ** 63, size=words, dtype=np.uint64))
            for i in range(count)]


def outcome_within(call, timeout=10.0):
    """Run ``call`` on a daemon thread; fail (without hanging the suite)
    when it has not returned after ``timeout`` seconds."""
    outcome = {}

    def run():
        try:
            outcome["value"] = call()
        except BaseException as error:  # noqa: BLE001 - reported below
            outcome["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still running after {timeout} s"
    return outcome


@pytest.fixture(params=["serial", "forked"])
def clk_pool(request, bundle):
    """A started CLK pool (4-word filters) on each executor."""
    forked = request.param == "forked"
    if forked and not fork_available():
        pytest.skip("fork start method unavailable")
    pool = ServingPool(bundle, PoolConfig(replicas=2, shards=3),
                       clk_words=WORDS, candidate_mode="clk")
    if forked:
        pool.start()
    else:
        with force_serial():
            pool.start()
    assert pool.serial is not forked
    pool.catalog_add_clk(filters(6))
    yield pool
    pool.stop()


class TestOneSurface:
    @pytest.mark.parametrize("name", SHARED)
    def test_defined_once_on_the_front(self, name):
        assert name in vars(ServingFront)
        assert name not in vars(MatchServer)
        assert name not in vars(ServingPool)

    def test_both_topologies_are_fronts(self):
        assert issubclass(MatchServer, ServingFront)
        assert issubclass(ServingPool, ServingFront)
        assert "set_candidate_mode" not in vars(MatchServer)


class TestStoppedFront:
    def test_server_score_batch_raises_after_stop(self, bundle, pairs):
        server = MatchServer(bundle, ServerConfig(max_queue=2))
        server.start()
        server.stop()
        outcome = outcome_within(lambda: server.score_batch(pairs[:3]))
        assert isinstance(outcome.get("error"), Overloaded)

    def test_unstarted_server_still_scores_inline(self, bundle, pairs):
        # a full queue without a scheduler is drained inline, not raised
        server = MatchServer(bundle, ServerConfig(max_queue=2))
        responses = server.score_batch(pairs[:5])
        assert [r.probs.shape for r in responses] == [(2,)] * 5

    def test_pool_score_batch_raises_after_stop(self, clk_pool, pairs):
        clk_pool.stop()
        outcome = outcome_within(lambda: clk_pool.score_batch(pairs[:3]))
        assert isinstance(outcome.get("error"), Overloaded)


class TestExecutorsFailAlike:
    def test_clk_match_error_reaches_caller(self, clk_pool):
        with pytest.raises(ValueError, match="packed filter"):
            clk_pool.clk_match("q", np.zeros(WORDS - 1, dtype=np.uint64))
        found = clk_pool.clk_match("q", filters(6)[2][1], k=1)
        assert found.best.record_id == "c2"

    def test_rejected_clk_add_changes_nothing(self, clk_pool):
        good = filters(1, seed=7)[0][1]
        bad = np.zeros(WORDS - 1, dtype=np.uint64)
        with pytest.raises(ValueError):
            clk_pool.catalog_add_clk([("fresh", good), ("bad", bad)])
        assert clk_pool.clk_catalog_size() == 6
        found = clk_pool.clk_match("q", good, k=6)
        assert "fresh" not in [c.record_id for c in found.candidates]
        assert clk_pool.stats()["clk_catalog_records"] == 6

    def test_server_clk_add_is_all_or_nothing(self, bundle):
        server = MatchServer(bundle, clk_index=ClkCandidateIndex(words=WORDS))
        server.catalog_add_clk(filters(3))
        with pytest.raises(ValueError):
            server.catalog_add_clk(
                [("fresh", filters(1, seed=7)[0][1]),
                 ("bad", np.zeros(WORDS - 1, dtype=np.uint64))])
        assert server.clk_catalog_size() == 3


class TestCheapHealth:
    def test_pool_health_skips_executors_and_swap(self, clk_pool,
                                                  monkeypatch):
        """health() reads router-side state only: it sends nothing to an
        executor and does not wait behind a swap, which holds the swap
        lock while the weight store waits on laggard replicas."""
        def refuse(*args, **kwargs):
            raise AssertionError("health() reached an executor")

        monkeypatch.setattr(clk_pool, "_call", refuse)
        monkeypatch.setattr(clk_pool, "_gather", refuse)
        with clk_pool._swap_lock:
            outcome = outcome_within(clk_pool.health)
        assert "error" not in outcome, outcome.get("error")
        assert outcome["value"]["clk_catalog_size"] == 6


def _post(http, path, payload):
    request = urllib.request.Request(
        http.address + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _b64(clk):
    return base64.b64encode(clk_to_bytes(clk)).decode()


class TestHTTP:
    def test_bad_filters_answer_400(self, bundle):
        """Forked where fork is available: the replica's ValueError is a
        400, and a rejected ingest leaves the catalog size alone."""
        pool = ServingPool(bundle, PoolConfig(replicas=2, shards=3),
                           clk_words=WORDS, candidate_mode="clk")
        pool.catalog_add_clk(filters(6))
        try:
            wrapper = MatchHTTPServer(pool, port=0)
        except OSError as error:  # pragma: no cover - sandboxed CI
            pytest.skip(f"cannot bind a local socket: {error}")
        bad = np.zeros(WORDS - 1, dtype=np.uint64)
        with wrapper:
            status, body = _post(wrapper, "/clk/match",
                                 {"id": "q", "clk": _b64(bad), "k": 3})
            assert status == 400 and "packed filter" in body["detail"]
            status, _ = _post(wrapper, "/admin/clk-catalog", {
                "add": [{"id": "fresh", "clk": _b64(filters(1)[0][1])},
                        {"id": "bad", "clk": _b64(bad)}]})
            assert status == 400
            assert pool.clk_catalog_size() == 6
            status, body = _post(wrapper, "/clk/match",
                                 {"id": "q", "clk": _b64(filters(6)[4][1]),
                                  "k": 1})
            assert status == 200 and body["candidates"][0]["id"] == "c4"

    @pytest.mark.parametrize("kind", ["server", "serial", "forked"])
    def test_clk_catalog_route_without_clk_index(self, bundle, kind):
        """With no CLK index, /admin/clk-catalog answers 400 before it
        writes: the plaintext record it names stays in the catalog."""
        if kind == "forked" and not fork_available():
            pytest.skip("fork start method unavailable")
        records = [EntityRecord.text_record(f"r{i}", text)
                   for i, text in enumerate(("red mountain bicycle",
                                             "espresso coffee machine",
                                             "wireless headphones",
                                             "gaming laptop computer"))]
        if kind == "server":
            front = MatchServer(bundle)
        else:
            front = ServingPool(bundle, PoolConfig(replicas=2, shards=3))
        front.catalog_add(records)
        with force_serial() if kind == "serial" else nullcontext():
            front.start()
        try:
            wrapper = MatchHTTPServer(front, port=0)
        except OSError as error:  # pragma: no cover - sandboxed CI
            front.stop()
            pytest.skip(f"cannot bind a local socket: {error}")
        with wrapper:
            status, body = _post(wrapper, "/admin/clk-catalog",
                                 {"remove": ["r0"]})
            assert status == 400 and "clk" in body["detail"]
            with pytest.raises(ValueError):
                front.clk_catalog_size()
            assert front.catalog_size() == 4
            found = front.candidates(records[0], 4)
            assert "r0" in [record.record_id for record, _ in found]
