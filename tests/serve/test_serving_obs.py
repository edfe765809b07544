"""Serving observability end to end: stitched cross-process request
traces, pool-wide metrics aggregation, SLO/drift surfaces over HTTP, and
the determinism contract (telemetry on vs off is bit-identical)."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.data.io import _record_to_dict
from repro.obs import TRACE_STAGES, read_events, telemetry_session
from repro.obs.serving import DriftConfig, DriftMonitor
from repro.parallel.pool import force_serial, fork_available
from repro.serve import (
    MatchHTTPServer, MatchServer, ModelBundle, PoolConfig, ServerConfig,
    ServingPool,
)

from .test_tenants import fresh_model, make_delta  # noqa: F401 (fixture dep)

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method unavailable")


@pytest.fixture(scope="module")
def obs_tenants_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs_tenants")
    make_delta("soft_prompt", 11, "ta").save(root / "ta")
    make_delta("soft_prompt", 12, "tb").save(root / "tb")
    return root


@needs_fork
class TestPoolTracing:
    def test_stitched_trees_across_replicas_and_tenants(
            self, obs_tenants_dir, pairs, tmp_path):
        bundle = ModelBundle.from_model(fresh_model(), threshold=0.5,
                                        name="traced")
        log = tmp_path / "serve.jsonl"
        with telemetry_session(path=log, trace=True):
            pool = ServingPool(bundle, PoolConfig(
                replicas=2, tenants_dir=str(obs_tenants_dir)))
            with pool:
                batch = list(pairs) * 2
                tenants = [("ta", "tb")[i % 2] for i in range(len(batch))]
                responses = pool.score_batch(batch, timeout=60.0,
                                             tenants=tenants)
        for response, tenant in zip(responses, tenants):
            tree = response.trace
            assert tree is not None
            assert tuple(s["name"] for s in tree["spans"]) == TRACE_STAGES
            # span attribution: the tree names the replica that actually
            # scored the request, and the stage walls account for the
            # whole observed latency (respond absorbs the remainder)
            assert tree["replica"] == response.replica
            assert tree["tenant"] == tenant
            assert sum(s["wall"] for s in tree["spans"]) == \
                pytest.approx(tree["wall"], abs=1e-6)
            assert all(s["wall"] >= 0.0 for s in tree["spans"])
            assert tree["batch_size"] == response.batch_size
        agg = pool.request_tracer.aggregate()
        assert agg["requests"] == len(responses)
        assert set(agg["by_tenant"]) == {"ta", "tb"}
        assert set(agg["by_replica"]) == {"0", "1"}  # both replicas used
        # every stitched tree also landed in the run log
        events = read_events(log, kind="serve.trace")
        ids = [event["request_id"] for event in events]
        assert sorted(ids) == sorted(r.trace["request_id"]
                                     for r in responses)
        assert len(set(ids)) == len(ids)

    def test_traces_absent_without_trace_flag(self, bundle, pairs):
        with telemetry_session():  # metrics only, no --trace
            pool = ServingPool(bundle, PoolConfig(replicas=1))
            with pool:
                response = pool.score(pairs[0], timeout=60.0)
        assert response.trace is None


@needs_fork
class TestPoolMetricsAggregation:
    def test_merged_totals_equal_sum_of_replica_registries(self, bundle,
                                                           pairs):
        with telemetry_session():
            pool = ServingPool(bundle, PoolConfig(replicas=2))
            with pool:
                pool.score_batch(list(pairs) * 2, timeout=60.0)
                view = pool.metrics_snapshot()  # pull: right-now counts
                sources = view["sources"]
                assert "router" in sources
                replica_labels = [label for label in sources
                                  if label.startswith("replica")]
                assert len(replica_labels) == 2
                total = sum(
                    sources[label].get("serve.requests", {}).get("value", 0)
                    for label in sources)
                assert view["merged"]["serve.requests"]["value"] == total
                assert total >= len(pairs) * 2
                json.dumps(view)  # plain JSON all the way down

    def test_stop_ack_harvests_final_snapshots(self, bundle, pairs):
        with telemetry_session():
            pool = ServingPool(bundle, PoolConfig(replicas=2))
            with pool:
                pool.score_batch(list(pairs[:4]), timeout=60.0)
            # pool stopped: the cached stop-ack snapshots still merge
            view = pool.metrics_snapshot()
            assert any(label.startswith("replica")
                       for label in view["sources"])
            assert view["merged"]["serve.responses"]["value"] >= 4

    def test_disabled_telemetry_keeps_metrics_empty(self, bundle, pairs):
        pool = ServingPool(bundle, PoolConfig(replicas=1))
        with pool:
            pool.score(pairs[0], timeout=60.0)
            view = pool.metrics_snapshot()
        assert view["merged"] == {}


class TestObservabilityRoutes:
    """/healthz stays open (LB probes), /slo and /metrics are gated like
    /admin/* -- exercised against a pool-mode server."""

    @pytest.fixture()
    def http(self, bundle, dataset):
        with force_serial():
            pool = ServingPool(bundle, PoolConfig(replicas=2, shards=2))
            pool.catalog_add(list(dataset.right_table))
            with pool:
                try:
                    wrapper = MatchHTTPServer(pool, port=0,
                                              admin_token="sekrit")
                except OSError as error:  # pragma: no cover - sandboxed CI
                    pytest.skip(f"cannot bind a local socket: {error}")
                with wrapper:
                    yield wrapper

    def get(self, http, path, token=None):
        headers = {} if token is None else {"X-Admin-Token": token}
        request = urllib.request.Request(http.address + path,
                                         headers=headers)
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, json.loads(reply.read())

    def test_healthz_is_ungated_and_enriched(self, http):
        status, body = self.get(http, "/healthz")  # no token on purpose
        assert status == 200 and body["status"] == "ok"
        assert body["mode"] == "serial"  # pool surface, forced serial
        assert body["bundle"] == "tiny"
        assert body["catalog_size"] > 0
        assert body["replicas"]["configured"] == 2
        assert "queue_depth" in body

    def test_slo_route_gated_and_shaped(self, http, pairs):
        with pytest.raises(urllib.error.HTTPError) as denied:
            self.get(http, "/slo")
        assert denied.value.code == 403
        payload = json.dumps({
            "left": _record_to_dict(pairs[0].left),
            "right": _record_to_dict(pairs[0].right)}).encode()
        request = urllib.request.Request(
            http.address + "/score", data=payload,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as reply:
            assert reply.status == 200
        status, body = self.get(http, "/slo", token="sekrit")
        assert status == 200 and body["status"] == "ok"
        objectives = body["slo"]["objectives"]
        assert objectives["latency_quantile"] == 0.95
        base = body["slo"]["tenants"]["_base"]
        assert base["requests"] >= 1 and base["ok"] in (True, False)
        assert "drift" in body

    def test_metrics_route_reports_pool_view(self, http):
        with pytest.raises(urllib.error.HTTPError) as denied:
            self.get(http, "/metrics")
        assert denied.value.code == 403
        status, body = self.get(http, "/metrics", token="sekrit")
        assert status == 200 and body["status"] == "ok"
        assert body["enabled"] is False  # no telemetry session here
        assert "sources" in body and "router" in body["sources"]


class TestDriftIntegration:
    def test_stationary_replay_quiet_then_injected_shift_trips(
            self, bundle, pairs, tmp_path):
        drift = DriftMonitor(DriftConfig(reference_size=8, window=8))
        server = MatchServer(bundle, ServerConfig(), drift=drift)
        log = tmp_path / "drift.jsonl"
        with telemetry_session(path=log) as tel:
            # replaying the same pairs bootstraps the reference from the
            # first window and then compares like against like: quiet
            for _ in range(4):
                for pair in pairs[:4]:
                    server.score(pair)
            assert not drift.active
            assert tel.metrics.gauge("serve.drift.active").value == 0.0
            # inject a shift: swap in a reference spread uniformly over
            # all score buckets -- live traffic concentrates in a few, so
            # PSI must trip within one rolling window (8 observations)
            version = f"{bundle.name}@{server.version}"
            drift.set_reference(None, [b / 10 + 0.05 for b in range(10)],
                                version=version)
            for pair in pairs[:8]:
                server.score(pair)
            assert drift.active
            assert tel.metrics.gauge("serve.drift.active").value == 1.0
            assert tel.metrics.counter("serve.drift.events").value >= 1
        events = read_events(log, kind="serve.drift")
        assert events
        assert events[0]["tenant"] == "_base"
        assert events[0]["drift_kind"] == "psi"
        assert events[0]["psi"] > events[0]["psi_threshold"]


class TestDeterminism:
    def test_outputs_bit_identical_telemetry_on_vs_off(self, bundle, pairs,
                                                       tmp_path):
        # no session: the strict no-op fast path
        plain = MatchServer(bundle, ServerConfig())
        baseline = [plain.score(pair) for pair in pairs[:6]]
        assert all(response.trace is None for response in baseline)
        with telemetry_session(path=tmp_path / "on.jsonl", trace=True):
            traced_server = MatchServer(bundle, ServerConfig())
            traced = [traced_server.score(pair) for pair in pairs[:6]]
        for got, want in zip(traced, baseline):
            # scored output is bit-identical; the trace tree is
            # observability metadata, never part of the scored output
            assert np.array_equal(got.probs, want.probs)
            assert got.prediction == want.prediction
            assert got.model_version == want.model_version
            assert got.trace is not None
            assert got.trace["spans"][0]["name"] == "admission"

    def test_slo_accounting_is_always_on_and_output_neutral(self, bundle,
                                                            pairs):
        server = MatchServer(bundle, ServerConfig())
        server.score(pairs[0])
        snap = server.slo_snapshot()
        assert snap["slo"]["tenants"]["_base"]["requests"] == 1
        assert snap["drift"]["tenants"]["_base"]["reference_size"] == 1
