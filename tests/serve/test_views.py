"""The topology views pinned: ``health()``, ``stats()`` and
``metrics_snapshot()`` of a MatchServer (sparse, dense and CLK indexes
plus a tenant registry), a serial pool and a forked pool, each after the
same traffic, equal recorded payloads. Wall-clock values (engine
timings and rates) and the host's BLAS thread count match by key only."""

from unittest.mock import ANY

import pytest

from repro.ann import RecordEncoder
from repro.data.dataset import CandidatePair
from repro.data.records import EntityRecord
from repro.obs import telemetry_session
from repro.parallel.pool import force_serial, fork_available
from repro.privacy import ClkCandidateIndex, ClkConfig, ClkEncoder
from repro.serve import (
    DenseCandidateIndex, MatchServer, ModelBundle, PoolConfig, ServingPool,
    TenantRegistry,
)

from .test_tenants import fresh_model, make_delta

FRONTS = ("server", "serial", "forked")


def catalog():
    """Four records, two on each of two shards."""
    return [EntityRecord.text_record(rid, text) for rid, text in (
        ("bike", "red mountain bicycle"),
        ("coffee", "espresso coffee machine"),
        ("kettle", "electric water kettle"),
        ("camera", "digital camera lens"))]


@pytest.fixture(scope="module")
def views_tenants(tmp_path_factory):
    root = tmp_path_factory.mktemp("view_tenants")
    make_delta("soft_prompt", 1, "t0").save(root / "t0")
    make_delta("adapter", 4, "ad").save(root / "ad")
    return root


@pytest.fixture(scope="module")
def clk_encoder():
    return ClkEncoder("view-salt", ClkConfig(nbits=256, num_hashes=8))


def build_front(kind, root, clk_encoder):
    """A started front of ``kind`` with the catalog loaded; a fresh model
    each, since tenant binding writes into the served model."""
    bundle = ModelBundle.from_model(fresh_model(), threshold=0.5,
                                    name="views")
    if kind == "server":
        encoder = RecordEncoder(lm=bundle.model.lm,
                                tokenizer=bundle.model.tokenizer, max_len=32)
        front = MatchServer(
            bundle, dense_index=DenseCandidateIndex(encoder, kind="ivf",
                                                    nlist=2, nprobe=2),
            clk_index=ClkCandidateIndex(encoder=clk_encoder),
            candidate_mode="dense",
            tenants=TenantRegistry(capacity=4, tenants_dir=root))
        front.catalog_add(catalog())
        return front.start()
    front = ServingPool(bundle, PoolConfig(replicas=2, shards=2,
                                           tenants_dir=str(root)),
                        clk_encoder=clk_encoder, candidate_mode="clk")
    front.catalog_add(catalog())
    if kind == "serial":
        with force_serial():
            return front.start()
    return front.start()


def drive(front, clk_encoder):
    """One request at a time, so every count below is deterministic: two
    base pairs, one tenant pair and one CLK query."""
    records = catalog()
    front.score(CandidatePair(records[0], records[1]), timeout=60.0)
    front.score(CandidatePair(records[2], records[3]), timeout=60.0)
    front.score(CandidatePair(records[0], records[2]), timeout=60.0,
                tenant="t0")
    found = front.clk_match("q", clk_encoder.encode_record(records[1]), k=2)
    assert found.best.record_id == "coffee"


@pytest.fixture(scope="module", params=FRONTS)
def front(request, views_tenants, clk_encoder):
    if request.param == "forked" and not fork_available():
        pytest.skip("fork start method unavailable")
    front = build_front(request.param, views_tenants, clk_encoder)
    try:
        drive(front, clk_encoder)
        yield request.param, front
    finally:
        front.stop()


HEALTH = {
    "server": {
        "mode": "single", "model_version": 1, "bundle": "views",
        "catalog_size": 4, "candidate_mode": "dense",
        "candidate_index": "dense:ivf", "queue_depth": 0,
        "scheduler_running": True, "clk_catalog_size": 4,
        "tenants": {"registered": 2, "loaded": 1, "capacity": 4},
    },
    "serial": {
        "mode": "serial", "model_version": 1, "bundle": "views",
        "catalog_size": 4, "candidate_mode": "clk",
        "candidate_index": "clk", "queue_depth": 0,
        "replicas": {"configured": 2, "live": [], "outstanding": {},
                     "deaths": 0, "respawns": 0},
        "clk_catalog_size": 4,
        "tenants": {"registered": 2, "loaded": 1, "capacity": 64},
    },
    "forked": {
        "mode": "pool", "model_version": 1, "bundle": "views",
        "catalog_size": 4, "candidate_mode": "clk",
        "candidate_index": "clk", "queue_depth": 0,
        "replicas": {"configured": 2, "live": [0, 1],
                     "outstanding": {"0": 0, "1": 0},
                     "deaths": 0, "respawns": 0},
        "clk_catalog_size": 4,
        # the router's registry only checks tenant ids: it loads nothing
        "tenants": {"registered": 2, "loaded": 0, "capacity": 64},
    },
}


def engine(pairs):
    """Engine stats after ``pairs`` single-row batches of distinct pairs
    (batch formation encodes each pair, so scoring hits the cache)."""
    return {"pairs": pairs, "rows": pairs, "batches": pairs,
            "elapsed": ANY, "pairs_per_sec": ANY,
            "padding_fraction": 0.0, "cache_hits": pairs,
            "cache_misses": 0, "cache_evictions": 0,
            "cache_hit_rate": 1.0 if pairs else 0.0, "cache_entries": pairs}


#: each shard's (sparse, CLK) stats: bike and kettle on shard 0, coffee
#: and camera on shard 1
SHARDS = [({"records": 2, "tokens": 6, "postings": 6}, 0.478515625),
          ({"records": 2, "tokens": 6, "postings": 6}, 0.490234375)]
#: an executor's registry after one soft-prompt tenant request
TENANT_BOUND = {"registered": 2, "loaded": 1, "capacity": 64, "bound": "t0",
                "delta_bytes": 768}
TENANT_IDLE = {"registered": 2, "loaded": 0, "capacity": 64, "bound": None,
               "delta_bytes": 0}


def executor_stats(served, owned, tenants):
    """An executor server's stats over the shards ``owned`` after serving
    ``served`` pairs."""
    sparse = [SHARDS[shard][0] for shard in owned]
    clk = [{"kind": "clk", "records": 2, "plaintext_records": 0, "words": 4,
            "encoded_nbits": 256, "capacity": 64, "free_rows": 62,
            "mean_fill": SHARDS[shard][1], "has_encoder": False}
           for shard in owned]
    records = 2 * len(owned)
    return {
        "queue_depth": 0, "requests": served, "responses": served,
        "shed": 0, "errors": 0, "batches": served, "model_version": 1,
        "bundle": "views", "candidate_mode": "clk",
        "index": {"kind": "sparse:token-overlap", "shards": len(owned),
                  "records": records, "per_shard": sparse,
                  "tokens": 3 * records, "postings": 3 * records},
        "engine": engine(served),
        "clk_index": {"kind": "clk", "shards": len(owned),
                      "records": records, "per_shard": clk,
                      "plaintext_records": 0},
        "tenants": tenants,
    }


def pool_stats(mode, live, outstanding, replica_stats):
    return {
        "mode": mode, "replicas": 2, "shards": 2, "live": live,
        "model_version": 1, "candidate_mode": "clk", "queue_depth": 0,
        "outstanding": outstanding,
        # the pool's own CLK query plus the three pairs its executors scored
        "requests": 4, "responses": 4, "shed": 0,
        "redispatched": 0, "deaths": 0, "respawns": 0,
        "catalog_records": 4, "replica_stats": replica_stats,
        "clk_catalog_records": 4, "clk_threshold": 0.8,
    }


STATS = {
    "server": {
        "queue_depth": 0, "requests": 4, "responses": 4, "shed": 0,
        "errors": 0, "batches": 3, "model_version": 1, "bundle": "views",
        "candidate_mode": "dense",
        "index": {"records": 4, "tokens": 12, "postings": 12},
        "engine": engine(3),
        "dense_index": {"records": 4, "ann": {
            "records": 4, "capacity": 256, "tombstones": 0, "dim": 32,
            "kind": "ivf", "nlist": 2, "nprobe": 2, "trained": False,
            "max_list": 0, "mean_list": 0.0}},
        "clk_index": {"kind": "clk", "records": 4, "plaintext_records": 4,
                      "words": 4, "encoded_nbits": 256, "capacity": 64,
                      "free_rows": 60, "mean_fill": 0.484375,
                      "has_encoder": True},
        "tenants": {"registered": 2, "loaded": 1, "capacity": 4,
                    "bound": "t0", "delta_bytes": 768},
    },
    "serial": pool_stats("serial", [], {}, {
        0: executor_stats(3, [0, 1], TENANT_BOUND)}),
    # one request at a time: least-outstanding dispatch picks replica 0
    "forked": pool_stats("pool", [0, 1], {0: 0, 1: 0}, {
        0: {**executor_stats(3, [0], TENANT_BOUND),
            "replica": 0, "shards": [0], "blas_threads": ANY},
        1: {**executor_stats(0, [1], TENANT_IDLE),
            "replica": 1, "shards": [1], "blas_threads": ANY}}),
}

#: metrics sources per front, in the order ``metrics_snapshot`` lists them
SOURCES = {"server": ["server"], "serial": ["router"],
           "forked": ["replica0", "replica1", "router"]}


class TestViews:
    def test_health(self, front):
        kind, target = front
        assert target.health() == HEALTH[kind]

    def test_stats(self, front):
        kind, target = front
        assert target.stats() == STATS[kind]

    def test_metrics_sources(self, front):
        kind, target = front
        view = target.metrics_snapshot()
        assert list(view) == ["merged", "sources"]
        assert list(view["sources"]) == SOURCES[kind]
        assert view["merged"] == {}  # no telemetry session


class TestServerMetrics:
    def test_merged_is_the_one_source(self, bundle):
        records = catalog()
        server = MatchServer(bundle)
        with telemetry_session():
            server.score(CandidatePair(records[0], records[1]))
            view = server.metrics_snapshot()
        assert list(view["sources"]) == ["server"]
        assert view["merged"]["serve.responses"]["value"] == 1
        assert view["merged"] == view["sources"]["server"]
