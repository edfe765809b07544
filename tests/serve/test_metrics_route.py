"""GET /metrics: MetricsRegistry snapshot over HTTP, gated like /admin/*
(loopback without a token, X-Admin-Token otherwise)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.data.io import _record_to_dict
from repro.obs import get_telemetry, telemetry_session
from repro.serve import (
    MatchHTTPServer, MatchServer, PendingResponse, PoolConfig, ServerConfig,
    ServingPool,
)


def get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request) as reply:
        return reply.status, json.loads(reply.read())


class TestMetricsRoute:
    def test_loopback_allowed_without_token(self, bundle):
        server = MatchServer(bundle, ServerConfig())
        with MatchHTTPServer(server, port=0) as http:
            status, payload = get(http.address + "/metrics")
        assert status == 200
        assert payload["status"] == "ok"
        # no telemetry session active: the null registry snapshot is empty
        assert payload["enabled"] is False
        assert payload["metrics"] == {}

    def test_token_required_when_configured(self, bundle):
        server = MatchServer(bundle, ServerConfig())
        with MatchHTTPServer(server, port=0,
                             admin_token="sesame") as http:
            with pytest.raises(urllib.error.HTTPError) as denied:
                get(http.address + "/metrics")
            assert denied.value.code == 403
            detail = json.loads(denied.value.read())
            assert "X-Admin-Token" in detail["detail"]
            status, payload = get(http.address + "/metrics",
                                  headers={"X-Admin-Token": "sesame"})
        assert status == 200
        assert payload["status"] == "ok"

    def test_wrong_token_denied(self, bundle):
        server = MatchServer(bundle, ServerConfig())
        with MatchHTTPServer(server, port=0, admin_token="right") as http:
            with pytest.raises(urllib.error.HTTPError) as denied:
                get(http.address + "/metrics",
                    headers={"X-Admin-Token": "wrong"})
            assert denied.value.code == 403

    def test_snapshot_reflects_served_traffic(self, bundle, pairs,
                                              tmp_path):
        server = MatchServer(bundle, ServerConfig())
        with telemetry_session(path=tmp_path / "run.jsonl"):
            with MatchHTTPServer(server, port=0) as http:
                body = json.dumps({
                    "left": _record_to_dict(pairs[0].left),
                    "right": _record_to_dict(pairs[0].right),
                }).encode()
                request = urllib.request.Request(
                    http.address + "/score", data=body,
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(request) as reply:
                    assert reply.status == 200
                status, payload = get(http.address + "/metrics")
        assert status == 200
        assert payload["enabled"] is True
        metrics = payload["metrics"]
        assert metrics["serve.requests"]["value"] >= 1
        assert metrics["serve.responses"]["value"] >= 1
        # snapshots are plain JSON all the way down
        json.dumps(metrics)

    def test_unknown_get_still_404s(self, bundle):
        server = MatchServer(bundle, ServerConfig())
        with MatchHTTPServer(server, port=0) as http:
            with pytest.raises(urllib.error.HTTPError) as missing:
                get(http.address + "/metricz")
            assert missing.value.code == 404


class TestCountedBeforeResolve:
    """A client may read /metrics the moment its response resolves, so
    the response counters must already include that response.

    Each resolution snapshots the registry from inside the pending's
    ``_resolve``. Snapshots only grow over time and each is taken after
    its own count, so the k-th smallest must read at least k.
    """

    @staticmethod
    def spy(monkeypatch):
        seen = []
        resolve = PendingResponse._resolve

        def counted(pending, response):
            seen.append((id(pending), get_telemetry().metrics.snapshot()))
            resolve(pending, response)

        monkeypatch.setattr(PendingResponse, "_resolve", counted)
        return seen

    @staticmethod
    def assert_counted(snapshots, name):
        counts = sorted(snap.get(name, {}).get("value", 0)
                        for snap in snapshots)
        assert counts, "no response resolved"
        for k, count in enumerate(counts, start=1):
            assert count >= k, (name, counts)

    def test_server_counts_before_resolving(self, bundle, pairs,
                                            monkeypatch):
        server = MatchServer(bundle, ServerConfig(max_batch_pairs=4))
        with telemetry_session():
            seen = self.spy(monkeypatch)
            server.score_batch(list(pairs[:8]))
        snapshots = [snap for _, snap in seen]
        assert len(snapshots) == 8
        self.assert_counted(snapshots, "serve.responses")
        assert all(snap.get("serve.batches", {}).get("value", 0) >= 1
                   for snap in snapshots)

    def test_pool_counts_before_resolving(self, bundle, pairs, monkeypatch):
        with telemetry_session():
            pool = ServingPool(bundle, PoolConfig(replicas=1))
            with pool:
                seen = self.spy(monkeypatch)
                pendings = [pool.submit(pair) for pair in pairs[:6]]
                for pending in pendings:
                    pending.result(60.0)
        # forked replicas resolve their own pendings in their processes;
        # the in-process (serial) executor is a MatchServer whose pendings
        # are the caller's, counted as serve.responses
        routed = {id(pending) for pending in pendings}
        snapshots = [snap for key, snap in seen if key in routed]
        assert len(snapshots) == 6
        self.assert_counted(snapshots, "serve.responses" if pool.serial
                            else "pool.responses")
