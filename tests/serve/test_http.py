"""Wire protocol: socket-free JSONL driver and the stdlib HTTP server."""

import json
import urllib.error
import urllib.request

import pytest

from repro.data.io import _record_to_dict
from repro.serve import (
    MatchHTTPServer, MatchServer, ServerConfig, ServingIndex, handle_request,
    read_jsonl, serve_requests,
)


def score_request(pair):
    return {"op": "score", "left": _record_to_dict(pair.left),
            "right": _record_to_dict(pair.right)}


class TestJSONLDriver:
    def test_score_and_match_requests(self, bundle, dataset, pairs):
        index = ServingIndex()
        index.add_many(dataset.right_table)
        server = MatchServer(bundle, ServerConfig(max_batch_pairs=4),
                             index=index)
        requests = [score_request(p) for p in pairs[:3]]
        requests.append({"op": "match",
                         "record": _record_to_dict(
                             dataset.left_table.records[0]),
                         "k": 3})
        responses = list(serve_requests(server, requests))
        assert len(responses) == 4
        for response in responses[:3]:
            assert response["status"] == "ok" and response["op"] == "score"
            assert len(response["probs"]) == 2
            assert response["model_version"] == 1
        match = responses[3]
        assert match["status"] == "ok" and match["op"] == "match"
        assert match["candidates"]
        assert all("probability" in c for c in match["candidates"])

    def test_responses_are_json_serializable(self, bundle, pairs):
        server = MatchServer(bundle)
        for response in serve_requests(server,
                                       [score_request(pairs[0])]):
            json.dumps(response)  # must not raise

    def test_unknown_op_is_protocol_error(self, bundle):
        from repro.serve import ProtocolError

        server = MatchServer(bundle)
        with pytest.raises(ProtocolError):
            handle_request(server, {"op": "frobnicate"})

    def test_missing_record_is_protocol_error(self, bundle):
        from repro.serve import ProtocolError

        server = MatchServer(bundle)
        with pytest.raises(ProtocolError):
            handle_request(server, {"op": "score", "left": {"id": "x"}})

    def test_non_object_record_is_protocol_error(self, bundle, pairs):
        """Both transports decode a request alike: a record that is not a
        JSON object is a ProtocolError, like a missing one."""
        from repro.serve import ProtocolError

        server = MatchServer(bundle)
        request = {"op": "score", "left": "x",
                   "right": _record_to_dict(pairs[0].right)}
        with pytest.raises(ProtocolError):
            handle_request(server, request)
        with pytest.raises(ProtocolError):
            list(serve_requests(server, [request]))
        with pytest.raises(ProtocolError):
            list(serve_requests(server, [[1, 2]]))

    def test_overloaded_becomes_response_dict(self, bundle, pairs):
        server = MatchServer(bundle, ServerConfig(max_queue=1))
        server.submit(pairs[0])  # fill the queue, no driver running
        response = handle_request(server, score_request(pairs[1]))
        assert response["status"] == "overloaded"
        assert response["queue_depth"] == 1

    def test_pipelined_driver_forms_microbatches(self, bundle, pairs):
        """The JSONL driver submits a window ahead of collection, so the
        scheduler sees real micro-batches, not size-1 batches (REVIEW)."""
        server = MatchServer(bundle, ServerConfig(max_batch_pairs=4))
        responses = list(serve_requests(
            server, [score_request(p) for p in pairs[:8]]))
        assert len(responses) == 8
        assert max(r["batch_size"] for r in responses) > 1
        assert server.stats()["batches"] < 8
        # responses stay in request order; batch composition differs from
        # solo scoring, so compare numerically (bit-identity per identical
        # batch is pinned in test_server.py and the benchmark)
        solo = MatchServer(bundle)
        for response, pair in zip(responses, pairs[:8]):
            expected = solo.score(pair)
            assert response["probs"] == pytest.approx(
                [float(p) for p in expected.probs], abs=1e-5)

    def test_pipelined_driver_respects_queue_bound(self, bundle, pairs):
        """A window larger than the queue retries instead of shedding."""
        server = MatchServer(bundle, ServerConfig(max_queue=2,
                                                  max_batch_pairs=4))
        responses = list(serve_requests(
            server, [score_request(p) for p in pairs[:6]], window=8))
        assert len(responses) == 6
        assert all(r["status"] == "ok" for r in responses)

    def test_stopped_server_yields_overloaded(self, bundle, pairs):
        server = MatchServer(bundle)
        server.stop(drain=False)
        responses = list(serve_requests(server,
                                        [score_request(pairs[0])]))
        assert responses[0]["status"] == "overloaded"

    def test_read_jsonl(self, tmp_path, pairs):
        path = tmp_path / "req.jsonl"
        with open(path, "w") as f:
            for pair in pairs[:2]:
                f.write(json.dumps(score_request(pair)) + "\n")
            f.write("\n")  # blank lines ignored
        assert len(read_jsonl(path)) == 2


class TestHTTPServer:
    @pytest.fixture()
    def http(self, bundle, dataset):
        index = ServingIndex()
        index.add_many(dataset.right_table)
        server = MatchServer(bundle, ServerConfig(max_batch_pairs=4),
                             index=index)
        try:
            wrapper = MatchHTTPServer(server, port=0)
        except OSError as error:  # pragma: no cover - sandboxed CI
            pytest.skip(f"cannot bind a local socket: {error}")
        with wrapper:
            yield wrapper

    def post(self, http, path, payload):
        request = urllib.request.Request(
            http.address + path, data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"}, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=30) as reply:
                return reply.status, json.loads(reply.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_healthz_and_stats(self, http):
        with urllib.request.urlopen(http.address + "/healthz",
                                    timeout=10) as reply:
            body = json.loads(reply.read())
        assert body["status"] == "ok"
        assert body["model_version"] == 1
        # enriched probe payload: cheap liveness facts for an LB
        assert body["mode"] == "single"
        assert body["catalog_size"] >= 0
        assert "queue_depth" in body
        assert "scheduler_running" in body
        with urllib.request.urlopen(http.address + "/stats",
                                    timeout=10) as reply:
            stats = json.loads(reply.read())
        assert stats["model_version"] == 1

    def test_score_endpoint(self, http, pairs):
        status, body = self.post(http, "/score", score_request(pairs[0]))
        assert status == 200
        assert body["status"] == "ok"
        assert len(body["probs"]) == 2

    def test_match_endpoint(self, http, dataset):
        record = _record_to_dict(dataset.left_table.records[0])
        status, body = self.post(http, "/match", {"record": record, "k": 2})
        assert status == 200
        assert body["candidates"]

    def test_catalog_admin(self, http):
        status, body = self.post(http, "/admin/catalog", {
            "add": [{"id": "new1", "kind": "text",
                     "values": {"text": "brand new catalog entry"}}]})
        assert status == 200 and body["added"] == 1
        status, body = self.post(http, "/admin/catalog",
                                 {"remove": ["new1"]})
        assert status == 200 and body["removed"] == 1

    def test_swap_admin(self, http, bundle, tmp_path):
        bundle.save(tmp_path / "b2")
        status, body = self.post(http, "/admin/swap",
                                 {"bundle": str(tmp_path / "b2")})
        assert status == 200
        assert body["model_version"] == 2

    def test_bad_request(self, http):
        status, body = self.post(http, "/score", {"left": {"id": "x"}})
        assert status == 400
        status, body = self.post(http, "/nope", {})
        assert status == 404

    def test_malformed_bodies_answer_400(self, http, pairs):
        """A body or a record that is not a JSON object answers 400
        instead of dropping the connection."""
        record = _record_to_dict(pairs[0].right)
        for path, payload in (("/score", [1, 2]),
                              ("/score", {"left": "x", "right": record}),
                              ("/admin/catalog", {"add": [1]})):
            status, body = self.post(http, path, payload)
            assert (status, body["status"]) == (400, "error"), path


class TestAdminAuth:
    """/admin/* routes are gated: token when configured, loopback-only
    otherwise (REVIEW: they used to be open to any client)."""

    @pytest.fixture()
    def http(self, bundle):
        server = MatchServer(bundle)
        try:
            wrapper = MatchHTTPServer(server, port=0, admin_token="sekrit")
        except OSError as error:  # pragma: no cover - sandboxed CI
            pytest.skip(f"cannot bind a local socket: {error}")
        with wrapper:
            yield wrapper

    def post(self, http, path, payload, token=None):
        headers = {"Content-Type": "application/json"}
        if token is not None:
            headers["X-Admin-Token"] = token
        request = urllib.request.Request(
            http.address + path, data=json.dumps(payload).encode(),
            headers=headers, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=30) as reply:
                return reply.status, json.loads(reply.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_admin_requires_token_when_configured(self, http):
        payload = {"add": [{"id": "a1", "kind": "text",
                            "values": {"text": "gated entry"}}]}
        status, body = self.post(http, "/admin/catalog", payload)
        assert status == 403 and body["status"] == "error"
        status, _ = self.post(http, "/admin/catalog", payload, token="wrong")
        assert status == 403
        status, body = self.post(http, "/admin/catalog", payload,
                                 token="sekrit")
        assert status == 200 and body["added"] == 1

    def test_swap_requires_token(self, http, bundle, tmp_path):
        bundle.save(tmp_path / "gated")
        status, _ = self.post(http, "/admin/swap",
                              {"bundle": str(tmp_path / "gated")})
        assert status == 403
        status, body = self.post(http, "/admin/swap",
                                 {"bundle": str(tmp_path / "gated")},
                                 token="sekrit")
        assert status == 200 and body["model_version"] == 2

    def test_scoring_routes_stay_open(self, http, pairs):
        status, body = self.post(http, "/score", score_request(pairs[0]))
        assert status == 200 and body["status"] == "ok"
