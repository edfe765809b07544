"""Wire front ends for :class:`~repro.serve.server.MatchServer`.

Two transports over one JSON protocol:

* :func:`serve_requests` -- offline/batch driver: an iterable of request
  dicts (e.g. parsed from a JSONL file) in, response dicts out, no
  sockets. The CLI's ``repro serve --requests`` mode and the tests use
  this; it submits a *window* of requests ahead of collection so the
  scheduler forms real micro-batches from the stream, through the exact
  same admission/batching path as the HTTP transport.
* :class:`MatchHTTPServer` -- a stdlib ``ThreadingHTTPServer`` exposing

  - ``POST /score``  ``{"left": <record>, "right": <record>}`` -- plus an
    optional ``"tenant": "<id>"`` routing to that tenant's delta when the
    server carries a :class:`~repro.serve.tenants.TenantRegistry`
  - ``POST /match``  ``{"record": <record>, "k": 5}`` (same optional
    ``tenant`` field)
  - ``POST /clk/match``  ``{"id": "<query id>", "clk": "<base64 filter
    bytes>", "k": 5}`` -- privacy-preserving Dice top-k over the CLK
    catalog; request and response carry only ids, filter bytes, and
    scores (see ``docs/PRIVACY.md``)
  - ``POST /admin/swap``  ``{"bundle": "<bundle dir>"}``
  - ``POST /admin/catalog``  ``{"add": [<record>...], "remove": [<id>...]}``
    (applied to the sparse token index *and* the dense ANN index when one
    is configured, so the two catalogs stay hot-add consistent)
  - ``POST /admin/clk-catalog``  ``{"add": [{"id", "clk": <base64>}...],
    "remove": [<id>...]}`` -- the cross-party ingest path: pre-encoded
    filters only, never raw attribute values
  - ``POST /admin/candidates``  ``{"mode": "sparse" | "dense" | "clk"}``
    -- flip the candidate generator match queries use (pool-wide when
    serving a :class:`~repro.serve.pool.ServingPool`)
  - ``GET /stats`` and ``GET /healthz`` -- ``/healthz`` is ungated and
    cheap (bundle version, catalog size, replica liveness/outstanding,
    tenant occupancy; no scoring, no scatter), sized for LB probes
  - ``GET /metrics`` -- the observability snapshot as JSON (gated exactly
    like ``/admin/*``: metric names and latency distributions are
    operational detail, not public surface). Against a
    :class:`~repro.serve.pool.ServingPool` this is the *pool-wide* merged
    view (router + every replica registry) with per-source snapshots
  - ``GET /slo`` -- per-tenant SLO compliance, drift-monitor state and
    request-trace aggregates (gated like ``/admin/*``)

Both transports take any :class:`~repro.serve.server.ServingFront` -- a
:class:`~repro.serve.server.MatchServer` or a
:class:`~repro.serve.pool.ServingPool`, which share that surface by
construction -- so ``repro serve --replicas N`` swaps the pool in without
touching this module's request path.

Records use the dataset-bundle JSON shape (``{"id", "kind", "values"}``).
Both transports decode a request the same way: a body or record that is
not a JSON object, a missing field or an unknown op is a
:class:`ProtocolError` (HTTP 400). A shed request answers
``503 {"status": "overloaded"}`` -- explicit backpressure, never silent
buffering.

The ``/admin/*`` routes mutate the server (model swap from a filesystem
path, catalog edits), so they are gated: with an ``admin_token``
configured, callers must present it in the ``X-Admin-Token`` header;
without one, only loopback clients are accepted -- a server bound to a
non-local interface answers ``403`` rather than exposing model
replacement to the network.
"""

from __future__ import annotations

import base64
import hmac
import json
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Deque, Iterable, Iterator, List, Optional, Tuple

from ..data.dataset import CandidatePair
from ..data.io import _record_from_dict, _record_to_dict
from ..data.records import EntityRecord
from ..obs import get_telemetry
from ..privacy.encoder import clk_from_bytes
from .bundle import ModelBundle
from .server import (
    ClkMatchResponse, MatchResponse, Overloaded, ScoreResponse, ServingFront,
)


class ProtocolError(ValueError):
    """A request dict is malformed (unknown op, missing fields)."""


# ----------------------------------------------------------------------
# JSON codec
# ----------------------------------------------------------------------
def score_response_to_dict(response: ScoreResponse) -> dict:
    body = {
        "status": "ok",
        "op": "score",
        "probs": [float(p) for p in response.probs],
        "prediction": response.prediction,
        "match_probability": response.match_probability,
        "model_version": response.model_version,
        "bundle": response.bundle_name,
        "batch_id": response.batch_id,
        "batch_size": response.batch_size,
        "replica": response.replica,
        "tenant": response.tenant,
    }
    if response.trace is not None:  # observability metadata, --trace only
        body["trace"] = response.trace
    return body


def match_response_to_dict(response: MatchResponse) -> dict:
    return {
        "status": "ok",
        "op": "match",
        "record_id": response.record_id,
        "candidates": [{
            "record": _record_to_dict(candidate.record),
            "block_score": candidate.block_score,
            "probability": candidate.probability,
            "is_match": candidate.is_match,
            "model_version": candidate.response.model_version,
        } for candidate in response.candidates],
    }


def clk_match_response_to_dict(response: ClkMatchResponse) -> dict:
    return {
        "status": "ok",
        "op": "clk_match",
        "record_id": response.record_id,
        "threshold": response.threshold,
        "candidates": [{
            "id": candidate.record_id,
            "score": candidate.score,
            "is_match": candidate.is_match,
        } for candidate in response.candidates],
    }


def overloaded_to_dict(error: Overloaded) -> dict:
    return {"status": "overloaded", "detail": str(error),
            "queue_depth": error.queue_depth}


def _object(value, what: str) -> dict:
    """``value`` when it is a JSON object, else a ProtocolError."""
    if not isinstance(value, dict):
        raise ProtocolError(f"{what} must be a JSON object")
    return value


def _record(value, what: str) -> EntityRecord:
    """``value`` decoded as a record; ``what`` names it in errors."""
    if value is None:
        raise ProtocolError(f"missing {what}")
    try:
        return _record_from_dict(_object(value, what))
    except KeyError as missing:
        raise ProtocolError(f"{what} needs {missing}") from None


def _clk_entry(entry) -> tuple:
    """One ``{"id", "clk": <base64>}`` entry as ``(id, packed filter)``."""
    entry = _object(entry, "clk-catalog entry")
    return str(entry["id"]), clk_from_bytes(base64.b64decode(entry["clk"]))


def _decode(request) -> Tuple[str, tuple, Optional[str]]:
    """Check one request dict; returns ``(op, args, tenant)``, where
    ``args`` are the pair of a ``score``, ``(record, k)`` of a ``match``
    and ``(id, packed filter, k)`` of a ``clk_match``."""
    request = _object(request, "request")
    op = request.get("op", "score")
    if op == "score":
        args = (CandidatePair(_record(request.get("left"), "left record"),
                              _record(request.get("right"), "right record")),)
    elif op == "match":
        args = (_record(request.get("record"), "match record"),
                request.get("k"))
    elif op == "clk_match":
        encoded = request.get("clk")
        if not isinstance(encoded, str) or not encoded:
            raise ProtocolError("clk_match request needs a base64 clk field")
        args = (request.get("id", ""), clk_from_bytes(
            base64.b64decode(encoded)), request.get("k"))
    else:
        raise ProtocolError(f"unknown op {op!r}")
    return op, args, request.get("tenant")


def _submit(server: ServingFront, op: str, args: tuple,
            tenant: Optional[str]):
    """Admit a decoded score or match request; returns its pending."""
    if op == "score":
        return server.submit(*args, tenant=tenant)
    return server.submit_match(*args, tenant=tenant)


def _answer(server: ServingFront, op: str, pending,
            timeout: Optional[float]) -> dict:
    """Wait for one admitted request (scored inline while no scheduler
    runs) and encode its response."""
    server._drive(pending)
    try:
        response = pending.result(timeout)
    except Overloaded as error:  # failed by stop(drain=False)
        return overloaded_to_dict(error)
    if op == "score":
        return score_response_to_dict(response)
    return match_response_to_dict(response)


def handle_request(server: ServingFront, request: dict,
                   timeout: Optional[float] = 30.0) -> dict:
    """Dispatch one request dict; returns a response dict (including the
    explicit ``overloaded`` response when admission sheds)."""
    op, args, tenant = _decode(request)
    if op == "clk_match":
        # synchronous: a popcount kernel answers without touching the
        # model queue, so there is no admission to shed
        return clk_match_response_to_dict(server.clk_match(*args))
    try:
        pending = _submit(server, op, args, tenant)
    except Overloaded as error:
        return overloaded_to_dict(error)
    return _answer(server, op, pending, timeout)


def serve_requests(server: ServingFront, requests: Iterable[dict],
                   timeout: Optional[float] = 30.0,
                   window: Optional[int] = None) -> Iterator[dict]:
    """Pipelined batch driver: yield one response dict per request dict,
    in request order.

    Up to ``window`` requests (default: the server's ``max_batch_pairs``)
    are submitted before the oldest response is collected, so the
    scheduler can form real micro-batches from the stream instead of
    scoring one request at a time. Admission that sheds is retried after
    freeing queue space, preserving the mode's serve-everything
    semantics; only a stopped server yields ``overloaded`` responses.
    """
    if window is None:
        window = server.server_config.max_batch_pairs
    window = max(1, int(window))
    pending: Deque[Tuple[str, object]] = deque()

    def collect() -> dict:
        return _answer(server, *pending.popleft(), timeout)

    for request in requests:
        op, args, tenant = _decode(request)
        if op == "clk_match":
            # answered inline (no queue); drain pending first so the
            # one-response-per-request order is preserved
            while pending:
                yield collect()
            yield clk_match_response_to_dict(server.clk_match(*args))
            continue
        while True:
            try:
                pending.append((op, _submit(server, op, args, tenant)))
                break
            except Overloaded as error:
                if pending:
                    yield collect()
                elif server.is_running:
                    time.sleep(0.0005)
                elif not server.process_once():
                    # nothing of ours queued and nothing to drain: the
                    # server is stopped (or another client owns the queue)
                    yield overloaded_to_dict(error)
                    break
        while len(pending) >= window:
            yield collect()
    while pending:
        yield collect()


def read_jsonl(path) -> List[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------
#: loopback peer addresses allowed to use /admin/* without a token
_LOOPBACK = ("127.0.0.1", "::1", "::ffff:127.0.0.1")


class _Handler(BaseHTTPRequestHandler):
    # set by MatchHTTPServer
    match_server: ServingFront = None
    request_timeout: float = 30.0
    admin_token: Optional[str] = None

    def _admin_allowed(self, what: str) -> bool:
        """Token when configured; otherwise loopback clients only. A
        refused caller gets the 403 naming ``what`` was denied."""
        if self.admin_token is not None:
            supplied = self.headers.get("X-Admin-Token", "")
            allowed = hmac.compare_digest(supplied, self.admin_token)
        else:
            allowed = self.client_address[0] in _LOOPBACK
        if not allowed:
            self._reply(403, {
                "status": "error",
                "detail": f"{what} denied: present X-Admin-Token, or "
                          "connect from loopback when no token is set"})
        return allowed

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            return {}
        return _object(json.loads(self.rfile.read(length).decode("utf-8")),
                       "request body")

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler API
        if self.path == "/healthz":
            # ungated by design: a load balancer probes this; the payload
            # is liveness topology (versions, counts), not model surface
            self._reply(200, {"status": "ok", **self.match_server.health()})
        elif self.path == "/stats":
            self._reply(200, self.match_server.stats())
        elif self.path == "/metrics":
            if self._admin_allowed("metrics"):
                # a pool merges its router and replica registries
                view = self.match_server.metrics_snapshot()
                self._reply(200, {"status": "ok",
                                  "enabled": get_telemetry().enabled,
                                  "metrics": view["merged"],
                                  "sources": view["sources"]})
        elif self.path == "/slo":
            if self._admin_allowed("slo"):
                self._reply(200, {"status": "ok",
                                  **self.match_server.slo_snapshot()})
        else:
            self._reply(404, {"status": "error", "detail": "unknown path"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler API
        try:
            payload = self._read_json()
        except (ValueError, UnicodeDecodeError) as error:
            self._reply(400, {"status": "error", "detail": str(error)})
            return
        if self.path.startswith("/admin/") and \
                not self._admin_allowed("admin API"):
            return
        try:
            if self.path == "/score":
                response = handle_request(
                    self.match_server, {**payload, "op": "score"},
                    timeout=self.request_timeout)
            elif self.path == "/match":
                response = handle_request(
                    self.match_server, {**payload, "op": "match"},
                    timeout=self.request_timeout)
            elif self.path == "/clk/match":
                response = handle_request(
                    self.match_server, {**payload, "op": "clk_match"},
                    timeout=self.request_timeout)
            elif self.path == "/admin/swap":
                bundle = ModelBundle.load(payload["bundle"])
                version = self.match_server.swap(bundle)
                response = {"status": "ok", "model_version": version,
                            "bundle": bundle.name}
            elif self.path == "/admin/catalog":
                added = self.match_server.catalog_add(
                    [_record(r, "catalog record")
                     for r in payload.get("add", [])])
                removed = self.match_server.catalog_remove(
                    payload.get("remove", []))
                response = {"status": "ok", "added": added,
                            "removed": removed,
                            "size": self.match_server.catalog_size()}
            elif self.path == "/admin/clk-catalog":
                # a front without a CLK index refuses before any write
                self.match_server._check_mode("clk")
                entries = [_clk_entry(entry)
                           for entry in payload.get("add", [])]
                added = self.match_server.catalog_add_clk(entries) \
                    if entries else 0
                removed = self.match_server.catalog_remove(
                    payload.get("remove", []))
                response = {"status": "ok", "added": added,
                            "removed": removed,
                            "size": self.match_server.clk_catalog_size()}
            elif self.path == "/admin/candidates":
                mode = self.match_server.set_candidate_mode(
                    payload.get("mode", ""))
                response = {"status": "ok", "candidate_mode": mode}
            else:
                self._reply(404, {"status": "error", "detail": "unknown path"})
                return
        except (ProtocolError, KeyError, ValueError) as error:
            self._reply(400, {"status": "error", "detail": str(error)})
            return
        if response.get("status") == "overloaded":
            self._reply(503, response)
        else:
            self._reply(200, response)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging goes through repro.obs, not stderr


class MatchHTTPServer:
    """HTTP wrapper owning a :class:`ServingFront`'s scheduler.

    ``admin_token`` gates the mutating ``/admin/*`` routes: when set,
    every admin call must carry it in ``X-Admin-Token``; when ``None``
    (the default), admin calls are only accepted from loopback peers, so
    binding a non-local ``host`` never exposes model swap or catalog
    edits without an explicit token.
    """

    def __init__(self, server: ServingFront, host: str = "127.0.0.1",
                 port: int = 0, request_timeout: float = 30.0,
                 admin_token: Optional[str] = None) -> None:
        self.match_server = server
        handler = type("BoundHandler", (_Handler,), {
            "match_server": server, "request_timeout": request_timeout,
            "admin_token": admin_token})
        self.httpd = ThreadingHTTPServer((host, port), handler)

    @property
    def address(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Blocking serve loop (the CLI's foreground mode)."""
        self.match_server.start()
        try:
            self.httpd.serve_forever()
        finally:
            self.shutdown()

    def start_background(self) -> "MatchHTTPServer":
        """Run the accept loop on a daemon thread (tests)."""
        import threading

        self.match_server.start()
        thread = threading.Thread(target=self.httpd.serve_forever,
                                  name="repro-serve-http", daemon=True)
        thread.start()
        return self

    def shutdown(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.match_server.stop()

    def __enter__(self) -> "MatchHTTPServer":
        return self.start_background()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
