"""MatchServer: dynamic micro-batching over a bounded request queue.

:class:`ServingFront` is the public surface this server shares with
:class:`~repro.serve.pool.ServingPool` (submit, match, CLK queries, the
synchronous conveniences, candidate mode, SLO/drift, and the ``health``,
``stats`` and ``metrics_snapshot`` views); each subclass only says where
scoring and candidate search run, and what its topology adds to a view.

Request path
------------

Clients ``submit()`` score requests (or ``submit_match()`` queries, which
fan out into per-candidate score requests through the same queue). A
scheduler -- either the background thread started by :meth:`start` or the
caller itself via the synchronous :meth:`process_once` driver -- forms
micro-batches:

* a batch is whatever is queued when the scheduler becomes free: the
  requests that arrived while the previous batch was being scored. It
  closes when the queue is empty, when ``max_batch_pairs`` rows are
  gathered, or when admitting the next request would push ``rows x
  longest-encoding`` past ``token_budget`` (the same packing rule as
  :func:`repro.infer.engine.pack_buckets`, which the engine re-applies
  inside the batch). There is no timer: an idle scheduler scores a lone
  request at once, and batches grow with load on their own;
* the scheduler snapshots ``(bundle, version)`` **once per batch** under
  the swap lock, so every request in a batch -- and therefore every
  response -- is attributable to exactly one model version even while
  :meth:`swap` installs a new :class:`~repro.serve.bundle.ModelBundle`;
* the batch is scored by ``InferenceEngine.predict_proba`` -- the exact
  offline inference path, so served probabilities are bit-identical to an
  offline engine replaying the same micro-batches (``bench_serving.py``
  asserts this).

Backpressure is explicit: a full queue rejects the request with
:class:`Overloaded` at admission time (counted on the ``serve.shed``
metric) instead of buffering unboundedly; clients decide whether to retry.

Failures are contained the same way: a record that cannot be encoded
fails only its own request (``serve.request_errors``), and a batch whose
scoring raises fails only that batch's pendings (``serve.batch_errors``)
-- the scheduler thread survives both and keeps serving the rest of the
queue.

Hot swap is a version counter: ``swap()`` bumps a monotonic counter under
a lock, the scheduler adopts the newest ``(bundle, version)`` at its next
batch boundary, and in-flight batches finish on the snapshot they started
with.

Everything is instrumented through :mod:`repro.obs` when a telemetry
session is active: ``serve.queue_depth`` gauge, ``serve.batch_size`` and
``serve.batch_seconds`` histograms, ``serve.request_seconds`` quantiles,
``serve.shed`` / ``serve.requests`` / ``serve.responses`` counters, and a
``serve.batch`` span per scored batch (recorded from the scheduler
thread).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import CandidatePair
from ..data.records import EntityRecord
from ..infer import EngineConfig, InferenceEngine
from ..obs import get_telemetry, merge_snapshots
from ..obs.serving import (
    DriftMonitor, RequestTracer, SloTracker, TraceContext, stitch_trace,
)
from .bundle import ModelBundle
from .index import ServingIndex


class Overloaded(RuntimeError):
    """Admission control rejected the request: the queue is full (or the
    server has been stopped). Carries ``queue_depth`` at rejection time."""

    def __init__(self, message: str, queue_depth: int = 0) -> None:
        super().__init__(message)
        self.queue_depth = queue_depth


@dataclass
class ServerConfig:
    """Scheduler and admission-control knobs."""

    #: bounded queue size; admission beyond this sheds with Overloaded
    max_queue: int = 256
    #: hard cap on requests per micro-batch
    max_batch_pairs: int = 32
    #: close a batch when rows x longest-encoding would exceed this
    #: (the engine re-buckets inside the batch under the same budget)
    token_budget: int = 2048
    #: encoding-cache entries shared across batches and bundle versions
    cache_capacity: int = 8192
    #: top-k candidates a match query scores when the caller passes none
    default_top_k: int = 5
    #: keep (batch_id, version, pairs) tuples for offline replay/audit
    record_batches: bool = False
    #: allow one micro-batch to mix rows of different soft-prompt tenants
    #: (scored in a single fused fastpath call); adapter tenants always
    #: batch same-tenant-only regardless of this flag
    fuse_tenants: bool = True

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.max_batch_pairs < 1:
            raise ValueError("max_batch_pairs must be >= 1")
        if self.token_budget < 1:
            raise ValueError("token_budget must be >= 1")


@dataclass
class ScoreResponse:
    """One scored pair, tagged with the model version that produced it."""

    probs: np.ndarray            # (2,) class probabilities
    prediction: int              # thresholded (or argmax) decision
    model_version: int           # server-side monotonic bundle version
    bundle_name: str
    batch_id: int
    batch_size: int
    queue_seconds: float         # admission -> batch formation
    service_seconds: float       # batch formation -> response
    replica: Optional[int] = None  # which pool replica scored it (pool mode)
    tenant: Optional[str] = None   # which tenant delta scored it (if any)
    #: per-stage timing payload (tracing only); never part of the scored
    #: output -- determinism comparisons ignore it
    trace: Optional[dict] = None

    @property
    def match_probability(self) -> float:
        return float(self.probs[1])


@dataclass
class MatchCandidate:
    """One ranked candidate of a match query."""

    record: EntityRecord
    block_score: float           # overlap coefficient (sparse mode) or
                                 # quantized cosine (dense mode)
    response: ScoreResponse

    @property
    def probability(self) -> float:
        return self.response.match_probability

    @property
    def is_match(self) -> bool:
        return bool(self.response.prediction)


@dataclass
class MatchResponse:
    """Ranked candidates for one query record (highest probability first)."""

    record_id: str
    candidates: List[MatchCandidate] = field(default_factory=list)

    @property
    def best(self) -> Optional[MatchCandidate]:
        return self.candidates[0] if self.candidates else None

    def matches(self) -> List[MatchCandidate]:
        return [c for c in self.candidates if c.is_match]


@dataclass
class ClkCandidate:
    """One ranked candidate of a CLK match query.

    Deliberately carries *no* :class:`EntityRecord` -- in cross-party mode
    the server never holds one, and the response must not either."""

    record_id: str
    score: float                 # Dice similarity over packed filters
    is_match: bool               # score >= the server's clk_threshold


@dataclass
class ClkMatchResponse:
    """Ranked CLK candidates for one query filter (ids + scores only)."""

    record_id: str
    candidates: List[ClkCandidate] = field(default_factory=list)
    threshold: float = 0.8

    @property
    def best(self) -> Optional[ClkCandidate]:
        return self.candidates[0] if self.candidates else None

    def matches(self) -> List[ClkCandidate]:
        return [c for c in self.candidates if c.is_match]


def clk_response(record_id: str, found: Sequence[Tuple[str, float]],
                 threshold: float, started: float) -> ClkMatchResponse:
    """Dice hits as a response, matches flagged at ``threshold``; records
    the ``privacy.clk.*`` metrics of a query that began at ``started``."""
    tel = get_telemetry()
    if tel.enabled:
        tel.metrics.counter("privacy.clk.requests").inc()
        tel.metrics.quantiles("privacy.clk.match_seconds").observe(
            time.perf_counter() - started)
        tel.metrics.histogram("privacy.clk.candidates").observe(len(found))
    return ClkMatchResponse(
        record_id=record_id, threshold=threshold,
        candidates=[ClkCandidate(rid, score, score >= threshold)
                    for rid, score in found])


class PendingResponse:
    """A one-shot future for a queued request.

    Resolution is guarded: resolving twice raises, which is how the
    hot-swap test proves no request is ever double-answered.
    """

    __slots__ = ("_event", "_response", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._response: Optional[ScoreResponse] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> ScoreResponse:
        if not self._event.wait(timeout):
            raise TimeoutError("request not resolved in time")
        if self._error is not None:
            raise self._error
        return self._response

    def _resolve(self, response: ScoreResponse) -> None:
        if self._event.is_set():
            raise RuntimeError("request resolved twice")
        self._response = response
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        if self._event.is_set():
            raise RuntimeError("request resolved twice")
        self._error = error
        self._event.set()


class PendingMatch:
    """Aggregates the per-candidate pendings of one match query."""

    __slots__ = ("record_id", "_entries")

    def __init__(self, record_id: str,
                 entries: List[Tuple[EntityRecord, float, PendingResponse]]
                 ) -> None:
        self.record_id = record_id
        self._entries = entries

    def done(self) -> bool:
        return all(pending.done() for _, _, pending in self._entries)

    def result(self, timeout: Optional[float] = None) -> MatchResponse:
        deadline = None if timeout is None else time.monotonic() + timeout
        candidates = []
        for record, block_score, pending in self._entries:
            remaining = None if deadline is None \
                else max(deadline - time.monotonic(), 0.0)
            response = pending.result(remaining)
            candidates.append(MatchCandidate(record, block_score, response))
        candidates.sort(key=lambda c: (-c.probability, -c.block_score,
                                       c.record.record_id))
        return MatchResponse(record_id=self.record_id, candidates=candidates)


class _Request:
    __slots__ = ("pair", "pending", "arrived", "tenant", "trace",
                 "encode_seconds")

    def __init__(self, pair: CandidatePair, pending: PendingResponse,
                 arrived: float, tenant: Optional[str] = None,
                 trace: Optional[TraceContext] = None) -> None:
        self.pair = pair
        self.pending = pending
        self.arrived = arrived
        self.tenant = tenant
        self.trace = trace
        self.encode_seconds = 0.0


#: candidate mode -> the MatchServer argument that holds its index
INDEX_ARGS = {"sparse": "index", "dense": "dense_index", "clk": "clk_index"}


class ServingFront:
    """The serving surface :class:`MatchServer` and
    :class:`~repro.serve.pool.ServingPool` share: everything that does not
    depend on where scoring runs.

    It holds admission (the tenant check, then the subclass's
    ``_submit_many``), match queries over its ``candidates``, CLK queries
    over its ``clk_candidates``, the synchronous conveniences (which
    drive ``process_once`` inline while no scheduler runs),
    candidate-mode switching, drift reporting, the SLO snapshot, the
    model ``version``/``bundle`` and the three views. A subclass keeps
    its topology: those hooks, ``is_running``, ``start``/``stop``,
    ``swap``, the catalog writes and what only it knows of a view:
    ``_mode``, ``_kinds`` (each configured candidate index's kind),
    ``_queue_depth``, ``_add_health``, ``_add_stats`` and
    ``_metric_sources``.
    """

    #: prefix of the shed counter and the candidate-mode event
    _scope = "serve"

    def __init__(self, bundle: ModelBundle, tenants, clk_threshold: float,
                 slo: Optional[SloTracker],
                 drift: Optional[DriftMonitor]) -> None:
        self._bundle = bundle
        self._version = 1
        #: optional repro.serve.tenants.TenantRegistry; requests may name
        #: one of its tenants, checked at admission
        self.tenants = tenants
        #: Dice score at or above which a CLK candidate counts as a match
        self.clk_threshold = clk_threshold
        self.slo = slo
        self.drift = drift
        #: stitched request traces (tracing sessions only)
        self.request_tracer: Optional[RequestTracer] = None
        self.request_count = 0
        self.response_count = 0
        self.shed_count = 0

    @property
    def server_config(self) -> ServerConfig:
        """The scheduler knobs each executor runs with."""
        return self.config

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _check_tenant(self, tenant: Optional[str]) -> None:
        """Reject an unknown tenant at admission, so a typo never costs a
        queue slot nor reaches an executor."""
        if tenant is not None and (self.tenants is None
                                   or not self.tenants.has(tenant)):
            from .tenants import UnknownTenant

            raise UnknownTenant(tenant)

    def _shed(self, tenant: Optional[str], count: int, message: str,
              depth: int) -> Overloaded:
        """Count one rejected admission of ``count`` requests (the
        ``<scope>.shed`` counter, the tenant's SLO); returns the error."""
        self.shed_count += 1
        if self.slo is not None:
            self.slo.observe_shed(tenant, count)
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter(f"{self._scope}.shed").inc()
        return Overloaded(message, queue_depth=depth)

    def submit(self, pair: CandidatePair,
               tenant: Optional[str] = None) -> PendingResponse:
        """Queue one score request; raises :class:`Overloaded` when full
        or stopped. ``tenant`` routes it to that tenant's delta."""
        self._check_tenant(tenant)
        return self._submit_many([pair], tenant=tenant)[0]

    def submit_match(self, record: EntityRecord,
                     k: Optional[int] = None,
                     tenant: Optional[str] = None) -> PendingMatch:
        """Queue a match query: top-k candidates, one score request each
        (admitted atomically). No candidates -> an empty, already
        resolved response."""
        candidates = self.candidates(record, k)
        if not candidates:
            return PendingMatch(record.record_id, [])
        self._check_tenant(tenant)
        pendings = self._submit_many(
            [CandidatePair(record, candidate) for candidate, _ in candidates],
            tenant=tenant)
        entries = [(candidate, score, pending)
                   for (candidate, score), pending in zip(candidates, pendings)]
        return PendingMatch(record.record_id, entries)

    def clk_match(self, record_id: str, clk, k: Optional[int] = None
                  ) -> ClkMatchResponse:
        """Dice top-k over the CLK catalog for one pre-encoded query.

        This is the CLK-only *scoring* mode: the similarity itself is the
        score (no model forward, no queue -- a popcount kernel answers in
        microseconds), and candidates at or above ``clk_threshold`` are
        flagged as matches. Request and response carry only ids, filter
        bytes, and scores."""
        started = time.perf_counter()
        found = self.clk_candidates(clk, k)
        self.request_count += 1
        self.response_count += 1
        return clk_response(record_id, found, self.clk_threshold, started)

    # ------------------------------------------------------------------
    # Synchronous conveniences
    # ------------------------------------------------------------------
    def _drive(self, pending) -> None:
        """While no scheduler runs, score inline until ``pending`` is
        done or nothing is left to score."""
        if not self.is_running:
            while not pending.done():
                if not self.process_once():
                    break

    def score(self, pair: CandidatePair,
              timeout: Optional[float] = None,
              tenant: Optional[str] = None) -> ScoreResponse:
        """Submit one pair and wait for its response (scored inline when
        no scheduler runs)."""
        pending = self.submit(pair, tenant=tenant)
        self._drive(pending)
        return pending.result(timeout)

    def score_batch(self, pairs: Sequence[CandidatePair],
                    timeout: Optional[float] = None,
                    tenants: Optional[Sequence[Optional[str]]] = None
                    ) -> List[ScoreResponse]:
        """Score many pairs through the full admission + batching path.

        When admission sheds, back off briefly while a scheduler runs, or
        score one batch inline when none does; raise :class:`Overloaded`
        when neither can make room (a stopped front). ``tenants`` routes
        each pair to its tenant's delta (one id per pair).
        """
        if tenants is None:
            tenants = [None] * len(pairs)
        elif len(tenants) != len(pairs):
            raise ValueError("one tenant id per pair required")
        pendings: List[PendingResponse] = []
        for pair, tenant in zip(pairs, tenants):
            while True:
                try:
                    pendings.append(self.submit(pair, tenant=tenant))
                    break
                except Overloaded:
                    if self.is_running:
                        time.sleep(0.0005)
                    elif not self.process_once():
                        raise
        for pending in pendings:
            self._drive(pending)
        return [pending.result(timeout) for pending in pendings]

    def match(self, record: EntityRecord, k: Optional[int] = None,
              timeout: Optional[float] = None,
              tenant: Optional[str] = None) -> MatchResponse:
        """Top-k candidates for ``record``, scored and ranked."""
        pending = self.submit_match(record, k, tenant=tenant)
        self._drive(pending)
        return pending.result(timeout)

    # ------------------------------------------------------------------
    # Candidate mode, monitoring, lifecycle
    # ------------------------------------------------------------------
    @property
    def candidate_mode(self) -> str:
        return self._candidate_mode

    def set_candidate_mode(self, mode: str) -> str:
        """Select the candidate generator for match queries: ``"sparse"``
        (token overlap, always available), ``"dense"`` (ANN over
        embeddings; requires a dense index), or ``"clk"`` (Dice over
        packed Bloom filters; requires a CLK index). Admin-flippable at
        runtime -- in-flight queries finish on the index they probed."""
        self._check_mode(mode)
        self._candidate_mode = mode
        tel = get_telemetry()
        if tel.enabled:
            tel.event(f"{self._scope}.candidate_mode", mode=mode)
        return mode

    def _observe_drift(self, rows: dict, version: str, tel) -> None:
        """Feed the drift monitor one version's scored rows, grouped as
        ``{tenant: (match probabilities, predictions)}``, and publish the
        ``serve.drift.*`` events and gauge."""
        fired = []
        for tenant, (probs, predictions) in sorted(
                rows.items(), key=lambda item: item[0] or ""):
            fired.extend(self.drift.observe(tenant, probs, predictions,
                                            version=version))
        if tel.enabled:
            for event in fired:
                tel.metrics.counter("serve.drift.events").inc()
                tel.event("serve.drift", **event)
            tel.metrics.gauge("serve.drift.active").set(
                1.0 if self.drift.active else 0.0)

    # ------------------------------------------------------------------
    # Model and views
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The newest model version (responses carry the one that scored
        them)."""
        return self._version

    @property
    def bundle(self) -> ModelBundle:
        return self._bundle

    def _check_mode(self, mode: str) -> None:
        if mode not in INDEX_ARGS:
            raise ValueError(
                "candidate_mode must be 'sparse', 'dense', or 'clk'")
        if mode not in self._kinds:
            raise ValueError(f"no {mode} index configured")

    def health(self) -> dict:
        """Cheap liveness payload for ``GET /healthz``: front-side state
        only -- no scoring, no executor call, no lock a swap holds -- so
        it is safe for LB probes."""
        kinds = self._kinds
        payload = {
            "mode": self._mode,
            "model_version": self.version,
            "bundle": self.bundle.name,
            "catalog_size": self.catalog_size(),
            "candidate_mode": self._candidate_mode,
            "candidate_index": kinds[self._candidate_mode],
            "queue_depth": self._queue_depth(),
        }
        self._add_health(payload)
        if "clk" in kinds:
            payload["clk_catalog_size"] = self.clk_catalog_size()
        if self.tenants is not None:
            tenants = self.tenants.stats()
            payload["tenants"] = {key: tenants[key] for key in
                                  ("registered", "loaded", "capacity")}
        return payload

    def stats(self) -> dict:
        """Service counters for ``GET /stats``, then the topology's own
        (a server's engine and indexes, a pool's replicas)."""
        stats = {
            "queue_depth": self._queue_depth(),
            "requests": self.request_count,
            "responses": self.response_count,
            "shed": self.shed_count,
            "model_version": self.version,
            "candidate_mode": self._candidate_mode,
        }
        self._add_stats(stats)
        return stats

    def metrics_snapshot(self) -> dict:
        """Each metrics registry this front spans (``sources``: a server
        is one, a pool its router plus every replica) and their merge,
        which counts every process once, for ``GET /metrics``."""
        sources = self._metric_sources()
        return {"merged": merge_snapshots(sources, strict=False),
                "sources": dict(sorted(sources.items()))}

    def slo_snapshot(self) -> dict:
        """Per-tenant SLO compliance plus drift state for ``GET /slo``."""
        return {
            "slo": self.slo.snapshot() if self.slo is not None else None,
            "drift": self.drift.snapshot() if self.drift is not None
            else None,
            "traces": (self.request_tracer.snapshot()
                       if self.request_tracer is not None else None),
        }

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class MatchServer(ServingFront):
    """Online matching service over a hot-swappable model bundle.

    Use either mode:

    * **threaded** -- ``with server: ...`` (or ``start()``/``stop()``)
      runs the scheduler on a daemon thread; clients block on
      ``PendingResponse.result()``;
    * **synchronous driver** -- skip ``start()`` and call
      :meth:`process_once` / :meth:`score_batch` / :meth:`match` from the
      test or benchmark thread; batch formation is identical in both
      modes.
    """

    _mode = "single"

    def __init__(self, bundle: ModelBundle,
                 config: Optional[ServerConfig] = None,
                 index: Optional[ServingIndex] = None,
                 dense_index=None,
                 clk_index=None,
                 clk_threshold: float = 0.8,
                 candidate_mode: str = "sparse",
                 tenants=None,
                 slo: Optional[SloTracker] = None,
                 drift: Optional[DriftMonitor] = None,
                 monitor: bool = True) -> None:
        self.config = config if config is not None else ServerConfig()
        #: per-tenant SLO bookkeeping and score-drift monitoring. Both are
        #: pure accounting over values the scoring path already computed
        #: (no rng, no output effect), so they default on. ``monitor=False``
        #: disables them -- pool replicas run that way because the router
        #: owns the pool-level trackers and a per-replica view would
        #: double-count. Pass explicit instances to share trackers (the
        #: pool's serial fallback does).
        if monitor:
            slo = slo if slo is not None else SloTracker()
            drift = drift if drift is not None else DriftMonitor()
        # with a tenant registry the scheduler binds each request's delta
        # (or fuses several soft-prompt tenants into one batch)
        super().__init__(bundle, tenants, clk_threshold, slo, drift)
        self._monitor = monitor
        if tenants is not None:
            tenants.attach(bundle.model)
        self.index = index if index is not None else ServingIndex()
        #: optional repro.serve.dense.DenseCandidateIndex; when present the
        #: catalog helpers keep it in lockstep with the sparse index and
        #: ``candidate_mode`` selects which one answers match queries
        self.dense_index = dense_index
        #: optional repro.privacy.ClkCandidateIndex; the PPRL catalog of
        #: packed Bloom filters. With an encoder attached (single-party
        #: mode) it tracks the plaintext catalog and can answer regular
        #: match queries; without one (cross-party mode) it only ever sees
        #: filter bytes + ids, and Dice scoring via :meth:`clk_match` is
        #: the sole query path -- the server holds nothing reversible
        self.clk_index = clk_index
        self._candidate_mode = "sparse"
        self.set_candidate_mode(candidate_mode)
        self._swap_lock = threading.Lock()
        self._queue: Deque[_Request] = deque()
        self._cond = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        self._running = False
        self._closed = False
        self._batch_id = 0
        self.batch_log: List[dict] = []
        self.error_count = 0
        self.engine = InferenceEngine(EngineConfig(
            token_budget=self.config.token_budget,
            max_batch_pairs=self.config.max_batch_pairs,
            cache_capacity=self.config.cache_capacity))

    # ------------------------------------------------------------------
    # Bundle management
    # ------------------------------------------------------------------
    def swap(self, bundle: ModelBundle) -> int:
        """Atomically install ``bundle``; scheduler adopts it at the next
        batch boundary. Returns the new version number."""
        with self._swap_lock:
            self._bundle = bundle
            self._version += 1
            version = self._version
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter("serve.swaps").inc()
            tel.metrics.gauge("serve.model_version").set(version)
            tel.event("serve.swap", version=version, bundle=bundle.name)
        return version

    def _snapshot(self) -> Tuple[ModelBundle, int]:
        with self._swap_lock:
            return self._bundle, self._version

    # ------------------------------------------------------------------
    # Candidate generation (sparse token index vs dense ANN index)
    # ------------------------------------------------------------------
    @property
    def _kinds(self) -> Dict[str, str]:
        """Each configured candidate index's ``kind``, by mode."""
        return {mode: getattr(self, arg).kind
                for mode, arg in INDEX_ARGS.items()
                if getattr(self, arg) is not None}

    def _candidate_index(self):
        return getattr(self, INDEX_ARGS[self._candidate_mode])

    def candidates(self, record: EntityRecord, k: Optional[int] = None,
                   vector: Optional[np.ndarray] = None
                   ) -> List[Tuple[EntityRecord, float]]:
        """Top-k ``(record, block score)`` from the index behind
        ``candidate_mode``. ``vector`` is ``record`` already embedded (a
        pool router embeds a dense query once for all its executors)."""
        k = self.config.default_top_k if k is None else int(k)
        if vector is not None and self._candidate_mode == "dense":
            return self.dense_index.candidates_from_vector(vector, k)
        return self._candidate_index().candidates(record, k)

    def catalog_add(self, records) -> int:
        """Add records to every configured candidate index (sparse always,
        dense when present, clk when it can encode), keeping the catalogs
        hot-add consistent. Returns the number of ids new to the sparse
        index."""
        records = list(records)
        fresh = self.index.add_many(records)
        if self.dense_index is not None:
            self.dense_index.add_many(records)
        if self.clk_index is not None and self.clk_index.encoder is not None:
            # single-party mode only: a cross-party clk index holds no
            # salt, so plaintext adds cannot reach it -- filters arrive
            # pre-encoded via catalog_add_clk instead
            self.clk_index.add_many(records)
        return fresh

    def catalog_size(self) -> int:
        """Records in the (sparse) catalog -- the transports use this so a
        :class:`~repro.serve.pool.ServingPool` can stand in for a server."""
        return len(self.index)

    def catalog_remove(self, record_ids) -> int:
        """Remove ids from every configured candidate index; returns how
        many held the id somewhere (sparse or clk -- in a filters-only
        deployment the sparse index is empty, mirroring the pool's
        plain-or-filter accounting)."""
        removed = 0
        for record_id in record_ids:
            dropped = self.index.remove(record_id)
            if self.dense_index is not None:
                self.dense_index.remove(record_id)
            if self.clk_index is not None:
                dropped = self.clk_index.remove(record_id) or dropped
            if dropped:
                removed += 1
        return removed

    # ------------------------------------------------------------------
    # CLK-only path (cross-party PPRL; see docs/PRIVACY.md)
    # ------------------------------------------------------------------
    def catalog_add_clk(self, entries) -> int:
        """Add pre-encoded ``(record_id, packed filter)`` entries.

        The cross-party ingest path: nothing here touches the sparse or
        dense indexes (there is no plaintext to give them), and in a
        filters-only deployment this is the *only* write path -- which is
        what the no-plaintext serving test leans on. Returns the number
        of new ids (re-adds replace in place)."""
        self._check_mode("clk")
        fresh = self.clk_index.add_clk_many(entries)
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter("privacy.clk.catalog_adds").inc()
        return fresh

    def clk_catalog_size(self) -> int:
        """Filters in the CLK catalog (transport symmetry with
        :meth:`catalog_size`; a pool exposes the same method)."""
        self._check_mode("clk")
        return len(self.clk_index)

    def clk_candidates(self, clk, k: Optional[int] = None
                       ) -> List[Tuple[str, float]]:
        """Dice top-k ``(record_id, score)`` over the CLK catalog for one
        packed query filter (no counting: :meth:`clk_match` counts)."""
        self._check_mode("clk")
        k = self.config.default_top_k if k is None else k
        return self.clk_index.search(np.asarray(clk, dtype=np.uint64), k)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _submit_many(self, pairs: Sequence[CandidatePair],
                     tenant: Optional[str] = None) -> List[PendingResponse]:
        """All-or-nothing admission of a request group (the caller has
        checked its tenant)."""
        now = time.perf_counter()
        tel = get_telemetry()
        tracing = self._monitor and tel.enabled and getattr(tel, "trace",
                                                            False)
        with self._cond:
            if self._closed:
                raise Overloaded("server is stopped",
                                 queue_depth=len(self._queue))
            depth = len(self._queue)
            if depth + len(pairs) > self.config.max_queue:
                raise self._shed(tenant, len(pairs), "queue full "
                                 f"({depth}/{self.config.max_queue})", depth)
            pendings = []
            for pair in pairs:
                pending = PendingResponse()
                ctx = None
                if tracing:
                    ctx = TraceContext.admit(tenant, now=now)
                    # standalone server: dispatch == admission (no router
                    # hop); the pool stamps real dispatch times itself
                    ctx.dispatched(now=now)
                self._queue.append(_Request(pair, pending, now,
                                            tenant=tenant, trace=ctx))
                pendings.append(pending)
            self.request_count += len(pairs)
            depth = len(self._queue)
            self._cond.notify_all()
        if tel.enabled:
            tel.metrics.counter("serve.requests").inc(len(pairs))
            tel.metrics.gauge("serve.queue_depth").set(depth)
        return pendings

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    def _encoding_length(self, model, pair: CandidatePair) -> int:
        return len(self.engine.encodings(model, [pair])[0])

    def _safe_length(self, model, request: _Request) -> Optional[int]:
        """Encoding length of a request, failing its pending on encode
        errors so one malformed record rejects one request instead of
        poisoning the batch (or the scheduler loop) it would have joined."""
        try:
            started = time.perf_counter()
            length = self._encoding_length(model, request.pair)
            request.encode_seconds = time.perf_counter() - started
            return length
        except Exception as error:
            request.pending._fail(error)
            self.error_count += 1
            if self.slo is not None:
                self.slo.observe_error(request.tenant)
            tel = get_telemetry()
            if tel.enabled:
                tel.metrics.counter("serve.request_errors").inc()
            return None

    def _batch_compatible(self, batch: List[_Request],
                          request: _Request) -> bool:
        """May ``request`` join ``batch``? Same tenant always; different
        tenants only when fusion is on and both sides are pure soft-prompt
        deltas (or the base model), so one fused fastpath call can score
        the whole batch. Adapter tenants mutate the transformer stack and
        therefore batch same-tenant-only."""
        anchor = batch[0].tenant
        if request.tenant == anchor:
            return True
        registry = self.tenants
        if registry is None or not self.config.fuse_tenants:
            return False
        try:
            return registry.fusable(anchor) and registry.fusable(request.tenant)
        except Exception:
            return False

    def _form_batch(self, model) -> List[_Request]:
        """Drain a micro-batch from what is queued now: an empty queue, the
        row cap or the token budget closes it, and nothing waits for
        requests yet to arrive. FIFO order is kept; a request that would
        blow the budget -- or that names a tenant the open batch cannot
        share a forward pass with -- is pushed back (in arrival order) for
        the next batch, and a request whose record cannot be encoded is
        failed individually and skipped."""
        cfg = self.config
        batch: List[_Request] = []
        deferred: List[_Request] = []
        longest = 0
        while len(batch) < cfg.max_batch_pairs:
            with self._cond:
                if not self._queue:
                    break
                request = self._queue.popleft()
            if batch and not self._batch_compatible(batch, request):
                deferred.append(request)
                continue
            length = self._safe_length(model, request)
            if length is None:
                continue
            if batch and (len(batch) + 1) * max(longest, length) \
                    > cfg.token_budget:
                deferred.append(request)
                break
            batch.append(request)
            longest = max(longest, length)
        if deferred:
            # back to the FRONT in original relative order: the next batch
            # opens with the oldest deferred request, so an incompatible
            # tenant is delayed at most one batch, never starved
            with self._cond:
                self._queue.extendleft(reversed(deferred))
        return batch

    def _score_pairs(self, model, pairs: Sequence[CandidatePair],
                     tenants: Sequence[Optional[str]]) -> np.ndarray:
        """Score one formed batch, binding tenant deltas as needed.

        Single-tenant batches bind that tenant's delta onto the backbone
        and run the exact offline engine path (served probabilities stay
        bit-identical to an offline replay with the delta bound); mixed
        batches go through the registry's fused soft-prompt kernel. The
        registry re-attaches lazily after a hot swap so a batch scored on
        the pre-swap snapshot binds deltas onto that same snapshot."""
        registry = self.tenants
        if registry is None:
            return self.engine.predict_proba(model, pairs)
        if registry.model is not model:
            registry.attach(model)
        unique = set(tenants)
        if len(unique) == 1:
            registry.bind(next(iter(unique)))
            return self.engine.predict_proba(model, pairs)
        return registry.fused_probs(self.engine, pairs, tenants)

    def process_once(self) -> int:
        """Form and score one micro-batch inline; returns requests served.

        This is the synchronous driver: benchmarks and tests call it in a
        loop (or via :meth:`score_batch`) instead of running the thread.
        """
        bundle, version = self._snapshot()
        model = bundle.model
        batch = self._form_batch(model)
        if not batch:
            return 0
        formed = time.perf_counter()
        tel = get_telemetry()
        batch_id = self._batch_id
        self._batch_id += 1
        pairs = [request.pair for request in batch]
        tenants = [request.tenant for request in batch]
        tracing = tel.enabled and getattr(tel, "trace", False)
        forward_cpu = 0.0
        try:
            if tel.enabled:
                cpu_started = time.process_time() if tracing else 0.0
                with tel.span("serve.batch", size=len(batch),
                              version=version):
                    probs = self._score_pairs(model, pairs, tenants)
                if tracing:
                    forward_cpu = time.process_time() - cpu_started
            else:
                probs = self._score_pairs(model, pairs, tenants)
        except BaseException as error:
            for request in batch:
                request.pending._fail(error)
            if self.slo is not None:
                for request in batch:
                    self.slo.observe_error(request.tenant)
            raise
        served = time.perf_counter()
        threshold = bundle.threshold
        registry = self.tenants
        if registry is None or all(t is None for t in tenants):
            if threshold is None:
                predictions = probs.argmax(axis=1)
            else:
                predictions = (probs[:, 1] > threshold).astype(np.int64)
        else:
            # per-row decision thresholds: each tenant tunes its own
            predictions = np.zeros(len(batch), dtype=np.int64)
            for row, tenant in enumerate(tenants):
                cut = registry.threshold_for(tenant, threshold)
                predictions[row] = (int(probs[row].argmax()) if cut is None
                                    else int(probs[row, 1] > cut))
        cpu_share = forward_cpu / len(batch) if tracing else 0.0
        # counted before any pending resolves: a client holding its
        # response never reads a stale stats()["responses"] or /metrics
        self.response_count += len(batch)
        if tel.enabled:
            tel.metrics.counter("serve.responses").inc(len(batch))
            tel.metrics.counter("serve.batches").inc()
        for row, request in enumerate(batch):
            trace_payload = None
            if tracing:
                trace_payload = {
                    "encode_seconds": request.encode_seconds,
                    "forward_cpu_seconds": cpu_share,
                }
            if request.trace is not None:
                # standalone tracing mode: stitch the tree right here (the
                # pool stitches router-side instead, from the pipe
                # payload) and hand the caller the finished tree
                if self.request_tracer is None:
                    self.request_tracer = RequestTracer()
                queue_wall = max(formed - request.arrived
                                 - request.encode_seconds, 0.0)
                tree = stitch_trace(
                    request.trace, t_done=served,
                    queue_seconds=queue_wall,
                    batch_seconds=request.encode_seconds,
                    forward_seconds=served - formed,
                    forward_cpu_seconds=cpu_share,
                    batch_id=batch_id, batch_size=len(batch))
                self.request_tracer.record(tree)
                tel.event("serve.trace", **tree)
                trace_payload = tree
            request.pending._resolve(ScoreResponse(
                probs=probs[row], prediction=int(predictions[row]),
                model_version=version, bundle_name=bundle.name,
                batch_id=batch_id, batch_size=len(batch),
                queue_seconds=formed - request.arrived,
                service_seconds=served - formed,
                tenant=request.tenant, trace=trace_payload))
        self._observe_served(batch, probs, predictions, bundle, version,
                             served, tel)
        if registry is not None:
            for tenant in set(tenants):
                registry.note_request(tenant, tenants.count(tenant))
        if self.config.record_batches:
            self.batch_log.append({"batch_id": batch_id, "version": version,
                                   "pairs": pairs, "tenants": tenants})
        if tel.enabled:
            metrics = tel.metrics
            metrics.histogram("serve.batch_size").observe(len(batch))
            metrics.timer("serve.batch_seconds").observe(served - formed)
            quantiles = metrics.quantiles("serve.request_seconds")
            for request in batch:
                quantiles.observe(served - request.arrived)
            with self._cond:
                depth = len(self._queue)
            metrics.gauge("serve.queue_depth").set(depth)
        return len(batch)

    def _observe_served(self, batch: List[_Request], probs: np.ndarray,
                        predictions: np.ndarray, bundle: ModelBundle,
                        version: int, served: float, tel) -> None:
        """Feed the SLO tracker and drift monitor from one scored batch.

        Pure bookkeeping over values scoring already produced -- it runs
        after every pending is resolved and can change nothing a client
        sees, which is what keeps telemetry-on/off outputs bit-identical.
        """
        if self.slo is not None:
            for request in batch:
                self.slo.observe(request.tenant, served - request.arrived)
        if self.drift is None:
            return
        rows: dict = {}
        for row, request in enumerate(batch):
            tenant_probs, tenant_predictions = rows.setdefault(
                request.tenant, ([], []))
            tenant_probs.append(float(probs[row, 1]))
            tenant_predictions.append(int(predictions[row]))
        self._observe_drift(rows, f"{bundle.name}@{version}", tel)

    def _loop(self) -> None:
        while True:
            with self._cond:
                while self._running and not self._queue:
                    self._cond.wait()
                if not self._running and not self._queue:
                    return
            try:
                self.process_once()
            except Exception:
                # process_once already failed the batch's pendings before
                # re-raising, so those clients got the error; the scheduler
                # must outlive a bad batch or everything still queued (and
                # every future request) would hang until timeout.
                self.error_count += 1
                tel = get_telemetry()
                if tel.enabled:
                    tel.metrics.counter("serve.batch_errors").inc()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def is_running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "MatchServer":
        if self.is_running:
            return self
        with self._cond:
            self._closed = False
            self._running = True
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-serve-scheduler",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop accepting requests; by default the scheduler finishes the
        queue before exiting so nothing queued is dropped."""
        thread = self._thread
        with self._cond:
            self._closed = True
            if not drain:
                while self._queue:
                    request = self._queue.popleft()
                    request.pending._fail(
                        Overloaded("server stopped before scoring"))
            self._running = False
            self._cond.notify_all()
        if thread is not None:
            thread.join(timeout)
            self._thread = None
        if drain:
            while True:
                with self._cond:
                    depth = len(self._queue)
                try:
                    if not self.process_once():
                        break
                except Exception as error:
                    # the failed batch's pendings carry the error; keep
                    # draining so the rest of the queue is still answered
                    self.error_count += 1
                    with self._cond:
                        stuck = len(self._queue) >= depth
                        leftovers = list(self._queue) if stuck else []
                        if stuck:
                            self._queue.clear()
                    if stuck:
                        # no progress: the failure precedes batch
                        # formation (e.g. a snapshot/adopt error), so
                        # retrying would spin forever -- fail what's
                        # left and bail out
                        for request in leftovers:
                            try:
                                request.pending._fail(error)
                            except RuntimeError:  # resolved in a race
                                pass
                        break

    # ------------------------------------------------------------------
    # What only a server adds to the views
    # ------------------------------------------------------------------
    def _queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def _add_health(self, payload: dict) -> None:
        payload["scheduler_running"] = self.is_running

    def _add_stats(self, stats: dict) -> None:
        """The scheduler's counters, the engine's and each index's stats."""
        stats.update(errors=self.error_count, batches=self._batch_id,
                     bundle=self.bundle.name, index=self.index.stats(),
                     engine=self.engine.stats_dict())
        if self.dense_index is not None:
            stats["dense_index"] = self.dense_index.stats()
        if self.clk_index is not None:
            stats["clk_index"] = self.clk_index.stats()
        if self.tenants is not None:
            stats["tenants"] = self.tenants.stats()

    def _metric_sources(self) -> Dict[str, dict]:
        return {"server": get_telemetry().metrics.snapshot()}
