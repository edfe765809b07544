"""MatchServer: dynamic micro-batching over a bounded request queue.

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
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import CandidatePair
from ..data.records import EntityRecord
from ..infer import EngineConfig, InferenceEngine
from ..obs import get_telemetry
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


class MatchServer:
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
            self.slo: Optional[SloTracker] = slo if slo is not None \
                else SloTracker()
            self.drift: Optional[DriftMonitor] = drift if drift is not None \
                else DriftMonitor()
        else:
            self.slo = slo
            self.drift = drift
        self._monitor = monitor
        #: stitched request traces (tracing sessions only, lazily built)
        self.request_tracer: Optional[RequestTracer] = None
        #: optional repro.serve.tenants.TenantRegistry; when present,
        #: requests may carry a tenant id and the scheduler binds that
        #: tenant's delta (or fuses several soft-prompt tenants into one
        #: batch) before scoring
        self.tenants = tenants
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
        #: Dice score at or above which a CLK candidate counts as a match
        self.clk_threshold = clk_threshold
        self._candidate_mode = "sparse"
        self.set_candidate_mode(candidate_mode)
        self._swap_lock = threading.Lock()
        self._bundle = bundle
        self._version = 1
        self._queue: Deque[_Request] = deque()
        self._cond = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        self._running = False
        self._closed = False
        self._batch_id = 0
        self.batch_log: List[dict] = []
        self.shed_count = 0
        self.request_count = 0
        self.response_count = 0
        self.error_count = 0
        self.engine = InferenceEngine(EngineConfig(
            token_budget=self.config.token_budget,
            max_batch_pairs=self.config.max_batch_pairs,
            cache_capacity=self.config.cache_capacity))

    # ------------------------------------------------------------------
    # Bundle management
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        with self._swap_lock:
            return self._version

    @property
    def bundle(self) -> ModelBundle:
        with self._swap_lock:
            return self._bundle

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
    def candidate_mode(self) -> str:
        return self._candidate_mode

    def set_candidate_mode(self, mode: str) -> str:
        """Select the candidate generator for match queries: ``"sparse"``
        (token overlap, always available), ``"dense"`` (ANN over
        embeddings; requires a ``dense_index``), or ``"clk"`` (Dice over
        packed Bloom filters; requires a ``clk_index``). Admin-flippable
        at runtime -- in-flight queries finish on the index they probed."""
        if mode not in ("sparse", "dense", "clk"):
            raise ValueError(
                "candidate_mode must be 'sparse', 'dense', or 'clk'")
        if mode == "dense" and self.dense_index is None:
            raise ValueError("no dense index configured")
        if mode == "clk" and self.clk_index is None:
            raise ValueError("no clk index configured")
        self._candidate_mode = mode
        tel = get_telemetry()
        if tel.enabled:
            tel.event("serve.candidate_mode", mode=mode)
        return mode

    def _candidate_index(self):
        if self._candidate_mode == "dense":
            return self.dense_index
        if self._candidate_mode == "clk":
            return self.clk_index
        return self.index

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
        if self.clk_index is None:
            raise ValueError("no clk index configured")
        fresh = self.clk_index.add_clk_many(entries)
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter("privacy.clk.catalog_adds").inc()
        return fresh

    def clk_catalog_size(self) -> int:
        """Filters in the CLK catalog (transport symmetry with
        :meth:`catalog_size`; a pool exposes the same method)."""
        if self.clk_index is None:
            raise ValueError("no clk index configured")
        return len(self.clk_index)

    def clk_candidates(self, clk, k: Optional[int] = None
                       ) -> List[Tuple[str, float]]:
        """Dice top-k ``(record_id, score)`` over the CLK catalog for one
        packed query filter (no counting: :meth:`clk_match` counts)."""
        if self.clk_index is None:
            raise ValueError("no clk index configured")
        k = self.config.default_top_k if k is None else k
        return self.clk_index.search(np.asarray(clk, dtype=np.uint64), k)

    def clk_match(self, record_id: str, clk, k: Optional[int] = None
                  ) -> "ClkMatchResponse":
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
    # Admission
    # ------------------------------------------------------------------
    def submit(self, pair: CandidatePair,
               tenant: Optional[str] = None) -> PendingResponse:
        """Queue one score request; raises :class:`Overloaded` when full.

        ``tenant`` routes the request to that tenant's delta; unknown
        tenants are rejected here, at admission, so a typo never costs a
        queue slot."""
        return self._submit_many([pair], tenant=tenant)[0]

    def _submit_many(self, pairs: Sequence[CandidatePair],
                     tenant: Optional[str] = None) -> List[PendingResponse]:
        """All-or-nothing admission of a request group."""
        if tenant is not None:
            from .tenants import UnknownTenant

            if self.tenants is None or not self.tenants.has(tenant):
                raise UnknownTenant(tenant)
        now = time.perf_counter()
        tel = get_telemetry()
        tracing = self._monitor and tel.enabled and getattr(tel, "trace",
                                                            False)
        with self._cond:
            if self._closed:
                raise Overloaded("server is stopped",
                                 queue_depth=len(self._queue))
            if len(self._queue) + len(pairs) > self.config.max_queue:
                self.shed_count += 1
                depth = len(self._queue)
                if self.slo is not None:
                    self.slo.observe_shed(tenant, len(pairs))
                if tel.enabled:
                    tel.metrics.counter("serve.shed").inc()
                raise Overloaded(
                    f"queue full ({depth}/{self.config.max_queue})",
                    queue_depth=depth)
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

    def submit_match(self, record: EntityRecord,
                     k: Optional[int] = None,
                     tenant: Optional[str] = None) -> PendingMatch:
        """Queue a match query: top-k index candidates, one score request
        each (admitted atomically). No candidates -> an empty, already
        resolved response."""
        candidates = self.candidates(record, k)
        if not candidates:
            return PendingMatch(record.record_id, [])
        pairs = [CandidatePair(record, candidate)
                 for candidate, _ in candidates]
        pendings = self._submit_many(pairs, tenant=tenant)
        entries = [(candidate, score, pending)
                   for (candidate, score), pending in zip(candidates, pendings)]
        return PendingMatch(record.record_id, entries)

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
        version_key = f"{bundle.name}@{version}"
        rows_by_tenant: dict = {}
        for row, request in enumerate(batch):
            rows_by_tenant.setdefault(request.tenant, []).append(row)
        fired = []
        for tenant, rows in sorted(rows_by_tenant.items(),
                                   key=lambda item: item[0] or ""):
            fired.extend(self.drift.observe(
                tenant,
                [float(probs[row, 1]) for row in rows],
                [int(predictions[row]) for row in rows],
                version=version_key))
        if tel.enabled:
            for event in fired:
                tel.metrics.counter("serve.drift.events").inc()
                tel.event("serve.drift", **event)
            tel.metrics.gauge("serve.drift.active").set(
                1.0 if self.drift.active else 0.0)

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

    def __enter__(self) -> "MatchServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Synchronous conveniences
    # ------------------------------------------------------------------
    def score(self, pair: CandidatePair,
              timeout: Optional[float] = None,
              tenant: Optional[str] = None) -> ScoreResponse:
        """Submit one pair and wait for its response (threaded mode), or
        score it inline when no scheduler thread is running."""
        pending = self.submit(pair, tenant=tenant)
        if not self.is_running:
            while not pending.done():
                self.process_once()
        return pending.result(timeout)

    def score_batch(self, pairs: Sequence[CandidatePair],
                    timeout: Optional[float] = None,
                    tenants: Optional[Sequence[Optional[str]]] = None
                    ) -> List[ScoreResponse]:
        """Score many pairs through the full admission + batching path.

        Respects the queue bound by draining inline (no thread) or backing
        off briefly (threaded) when admission sheds. ``tenants`` routes
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
                    else:
                        self.process_once()
        if not self.is_running:
            while any(not pending.done() for pending in pendings):
                if not self.process_once():
                    break
        return [pending.result(timeout) for pending in pendings]

    def match(self, record: EntityRecord, k: Optional[int] = None,
              timeout: Optional[float] = None,
              tenant: Optional[str] = None) -> MatchResponse:
        """Top-k candidates for ``record``, scored and ranked."""
        pending = self.submit_match(record, k, tenant=tenant)
        if not self.is_running:
            while not pending.done():
                if not self.process_once():
                    break
        return pending.result(timeout)

    # ------------------------------------------------------------------
    # Observability surfaces (ServingPool offers the same three)
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Cheap liveness payload for ``GET /healthz`` (no locks beyond
        the queue/swap peeks, no scoring, safe for LB probes)."""
        with self._cond:
            depth = len(self._queue)
        bundle, version = self._snapshot()
        payload = {
            "mode": "single",
            "model_version": version,
            "bundle": bundle.name,
            "catalog_size": len(self.index),
            "candidate_mode": self._candidate_mode,
            "candidate_index": self._candidate_index().kind,
            "queue_depth": depth,
            "scheduler_running": self.is_running,
        }
        if self.clk_index is not None:
            payload["clk_catalog_size"] = len(self.clk_index)
        if self.tenants is not None:
            tstats = self.tenants.stats()
            payload["tenants"] = {
                "registered": tstats["registered"],
                "loaded": tstats["loaded"],
                "capacity": tstats["capacity"],
            }
        return payload

    def slo_snapshot(self) -> dict:
        """Per-tenant SLO compliance plus drift state for ``GET /slo``."""
        return {
            "slo": self.slo.snapshot() if self.slo is not None else None,
            "drift": self.drift.snapshot() if self.drift is not None
            else None,
            "traces": (self.request_tracer.snapshot()
                       if self.request_tracer is not None else None),
        }

    def metrics_snapshot(self) -> dict:
        """The active registry's snapshot, shaped like the pool's merged
        view (one source) so ``GET /metrics`` is mode-agnostic."""
        snap = get_telemetry().metrics.snapshot()
        return {"merged": snap, "sources": {"server": snap}}

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Service counters plus the underlying engine's stats."""
        with self._cond:
            depth = len(self._queue)
        stats = {
            "queue_depth": depth,
            "requests": self.request_count,
            "responses": self.response_count,
            "shed": self.shed_count,
            "errors": self.error_count,
            "batches": self._batch_id,
            "model_version": self.version,
            "bundle": self.bundle.name,
            "candidate_mode": self._candidate_mode,
            "index": self.index.stats(),
            "engine": self.engine.stats_dict(),
        }
        if self.dense_index is not None:
            stats["dense_index"] = self.dense_index.stats()
        if self.clk_index is not None:
            stats["clk_index"] = self.clk_index.stats()
        if self.tenants is not None:
            stats["tenants"] = self.tenants.stats()
        return stats
