"""ServingPool: replicated, sharded online matching.

One :class:`~repro.serve.server.MatchServer` is a single process with one
model copy and one catalog.  The pool keeps that server *as the executor
unit* and adds the multi-worker topology around it:

* **N replica workers** -- forked processes, each running a
  :class:`ReplicaMatchServer`: the unmodified ``MatchServer`` scheduler
  loop and inference engine over the catalog shards that replica owns.
  Model weights are **not** copied per replica: every replica maps the
  published :class:`~repro.serve.bundle.ModelBundle` weights zero-copy
  from the :class:`~repro.serve.weights.SharedBundleWeights` store
  (double-buffered shm slots built on
  :class:`repro.parallel.shm.SharedArray`), and adopts the newest version
  at its batch boundary -- so :meth:`ServingPool.swap` flips **all**
  replicas atomically via one version bump, and no batch ever mixes two
  versions (the store's overwrite guard keeps a slot intact until every
  live replica has moved past it).

* **A front router** -- per-replica bounded queues with load-aware
  dispatch: a request goes to the live replica with the fewest
  outstanding pairs, ties broken by the smaller outstanding token
  estimate (a cheap whitespace proxy for encoding length -- the router
  deliberately does not tokenize), then by replica index.  Admission is
  explicit: when the pool-wide queue bound or every per-replica queue is
  full, ``submit`` raises :class:`~repro.serve.server.Overloaded` -- the
  same shed-don't-buffer contract as the single server.  The router sends
  a replica three message kinds: ``score`` (one admitted request),
  ``call`` (one method of the replica's server, from a fixed allowlist:
  catalog writes, candidates, CLK search, candidate mode, stats, batch
  log, metrics) and ``stop``.

* **Fault containment** -- a replica that dies mid-flight is detected by
  its pipe EOF; its in-flight requests are *re-dispatched* to surviving
  replicas (scoring is pure, so re-execution is safe and an accepted
  request is never lost), and the replica is respawned: the fresh fork
  inherits the current catalog journals and adopts the current weight
  version, so the pool heals without draining.

* **A sharded candidate layer** -- the catalog is hash-partitioned by
  ``record_id`` (:func:`~repro.serve.shard.shard_of`); shard ``s`` lives
  inside replica ``s % N``, whose server keeps its indexes as
  :class:`~repro.serve.shard.ShardedIndex` es over its own shards.  A
  match query scatters to every replica that owns a shard (dense queries
  are embedded once in the router) and the router merges the partial
  top-k lists in the deterministic ``(-score, record_id)`` order.
  Catalog writes route to the owning replica; the router keeps per-shard
  **journals** of raw records and packed CLK filters -- the respawn
  source.  CLK shards hold filters only: a ``clk_encoder`` runs in the
  router, once per record.

Where fork (or real shared memory) is unavailable the pool degrades to a
**serial fallback**: one in-process ``MatchServer`` built by the same
helper as a replica's, owning every shard, driven through the same
per-executor call.  Only
admission (that server admits and resolves its own requests, so
``response.replica`` stays ``None``), ``swap``, ``stop`` and the ``mode``
label differ.

Everything is observable through :mod:`repro.obs`: per-replica queue
depth gauges (``pool.replica<i>.outstanding``), dispatch latency
(``pool.dispatch_seconds``), the swap-version gauge
(``pool.swap_version``), and counters for sheds, deaths, respawns and
re-dispatches.
"""

from __future__ import annotations

import ctypes
import dataclasses
import itertools
import multiprocessing as mp
import queue
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import CandidatePair
from ..data.records import EntityRecord
from ..kernels import top_ranked
from ..obs import get_telemetry, merge_snapshots
from ..obs.serving import (
    DriftMonitor, RequestTracer, SloTracker, TraceContext, stitch_trace,
)
from ..parallel.pool import fork_available
from .bundle import ModelBundle
from .index import ServingIndex
from .server import (
    MatchServer, Overloaded, PendingMatch, PendingResponse, ScoreResponse,
    ServerConfig, clk_response,
)
from .shard import ShardedIndex, merge_topk, shard_of
from .weights import SharedBundleWeights

#: the executor server methods a ``call`` may run; anything else is refused
_CALLS = frozenset({
    "catalog_add", "catalog_remove", "catalog_add_clk", "candidates",
    "clk_candidates", "set_candidate_mode", "stats", "batch_log",
    "metrics_snapshot"})

#: candidate mode -> the MatchServer argument that holds its index
_INDEX_ARGS = {"sparse": "index", "dense": "dense_index", "clk": "clk_index"}


def _invoke(server: MatchServer, method: str, args: tuple):
    """Run one allowlisted call on an executor's server (``batch_log`` is
    an attribute: the call returns a copy of it)."""
    if method not in _CALLS:
        raise ValueError(f"{method!r} is not an executor call")
    target = getattr(server, method)
    return target(*args) if callable(target) else list(target)


@dataclass
class PoolConfig:
    """Topology and routing knobs of a :class:`ServingPool`."""

    #: replica worker processes (each runs one MatchServer scheduler)
    replicas: int = 2
    #: candidate-catalog shards; shard s is owned by replica s % replicas.
    #: None -> one shard per replica
    shards: Optional[int] = None
    #: per-replica scheduler knobs (the MatchServer config inside each
    #: worker); ``max_queue`` doubles as the pool-wide admission bound
    server: ServerConfig = field(default_factory=ServerConfig)
    #: per-replica bounded queue: dispatch never puts more than this many
    #: outstanding pairs on one replica (re-dispatch after a death may)
    max_outstanding: int = 64
    #: scatter/gather wait for candidates / stats / acks
    gather_timeout_s: float = 10.0
    #: how long a publish may wait for a slow replica to vacate a slot
    guard_timeout_s: float = 5.0
    #: respawn dead replicas (the fault-containment loop)
    respawn: bool = True
    #: stop(drain=True) waits this long for in-flight work to finish
    drain_timeout_s: float = 30.0
    #: directory of per-tenant DeltaBundles; every replica builds its own
    #: TenantRegistry over it (deltas are KBs -- loading them per replica
    #: is cheap; only the backbone weights are shared via shm)
    tenants_dir: Optional[str] = None
    #: per-replica LRU capacity for resident tenant deltas
    tenant_capacity: int = 64
    #: how often (seconds) a replica pushes its metrics snapshot to the
    #: router when telemetry is enabled; <= 0 disables periodic pushes
    #: (the router can still pull, and the stop ack carries the final
    #: snapshot either way)
    metrics_interval_s: float = 2.0

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.shards is None:
            self.shards = self.replicas
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")


def _approx_tokens(pair: CandidatePair) -> int:
    """Cheap token-count proxy used for token-budget-aware dispatch.

    Whitespace words of both records' values: roughly proportional to the
    encoding length without importing the tokenizer into the router's hot
    path.  Only relative magnitudes matter (it breaks ties between
    equally-loaded replicas), so a proxy is enough.
    """
    count = 0
    for record in (pair.left, pair.right):
        for value in record.values.values():
            count += len(str(value).split())
    return max(count, 1)


class _ReplyGather:
    """Collects one control reply per wanted replica, with drop-on-death."""

    __slots__ = ("want", "replies", "event")

    def __init__(self, want) -> None:
        self.want = set(want)
        self.replies: Dict[int, object] = {}
        self.event = threading.Event()
        self._check()

    def _check(self) -> None:
        if self.want <= set(self.replies):
            self.event.set()

    def reply(self, replica: int, payload) -> None:
        self.replies[replica] = payload
        self._check()

    def drop(self, replica: int) -> None:
        self.want.discard(replica)
        self._check()

    def wait(self, timeout: float) -> Dict[int, object]:
        self.event.wait(timeout)
        return self.replies


class _Inflight:
    __slots__ = ("pending", "pair", "replica", "tokens", "arrived", "tenant",
                 "trace")

    def __init__(self, pending: PendingResponse, pair: CandidatePair,
                 replica: int, tokens: int, arrived: float,
                 tenant: Optional[str] = None,
                 trace: Optional[TraceContext] = None) -> None:
        self.pending = pending
        self.pair = pair
        self.replica = replica
        self.tokens = tokens
        self.arrived = arrived
        self.tenant = tenant
        self.trace = trace


class _Replica:
    """Router-side handle of one worker process."""

    __slots__ = ("index", "proc", "conn", "send_lock", "outstanding_pairs",
                 "outstanding_tokens", "live")

    def __init__(self, index: int, proc, conn) -> None:
        self.index = index
        self.proc = proc
        self.conn = conn
        self.send_lock = threading.Lock()
        self.outstanding_pairs = 0
        self.outstanding_tokens = 0
        self.live = True

    def send(self, message) -> None:
        with self.send_lock:
            self.conn.send(message)


class ReplicaMatchServer(MatchServer):
    """A MatchServer whose model/version snapshot comes from the shared
    weight store instead of a local ``swap()``.

    The scheduler loop, batching, shedding and failure containment are
    inherited unchanged; only ``_snapshot`` -- the per-batch boundary --
    is redirected: it adopts the newest published version (rebinding the
    parameter views, threshold and bundle name) and reports that version,
    which is what extends the exactly-one-version-per-batch guarantee
    across the whole pool.  ``indexes`` are the MatchServer index
    arguments; in a pool they are sharded over the replica's own shards.
    """

    def __init__(self, bundle: ModelBundle, config: ServerConfig,
                 store: SharedBundleWeights, replica: int,
                 tenants=None, **indexes) -> None:
        # monitor=False: the router owns the pool-level SLO tracker and
        # drift monitor (it sees every response); a replica-local view
        # would double-count and fragment the per-tenant windows
        super().__init__(bundle, config, tenants=tenants, monitor=False,
                         **indexes)
        self._store = store
        self._replica_index = replica
        self._seen_version = 0
        #: numpy BLAS threads after the worker pinned them (None: unknown)
        self.blas_threads: Optional[int] = None
        with self._swap_lock:
            self._adopt_locked()

    def _adopt_locked(self) -> None:
        if (self.tenants is not None
                and self._store.version != self._seen_version
                and self.tenants.model is self._bundle.model):
            # a publish landed: adoption re-points every parameter view,
            # which requires the pristine backbone topology -- a bound
            # adapter tenant adds parameters the store's fingerprint
            # check refuses, and a bound soft prompt would get the base
            # slot's weights written over its delta
            self.tenants.bind(None)
        version = self._store.adopt(self._bundle.model, self._replica_index,
                                    self._seen_version)
        if version != self._seen_version:
            self._seen_version = version
            name, threshold = self._store.read_meta(version)
            if name:
                self._bundle.name = name
            self._bundle.threshold = threshold
            self._version = version
            # adoption re-points the weights of the *same* model object, so
            # the registry's identity-based lazy re-attach never fires --
            # its backbone fingerprint (and any materialized deltas pinned
            # to it) must be recomputed here
            if self.tenants is not None:
                self.tenants.attach(self._bundle.model)

    def _snapshot(self) -> Tuple[ModelBundle, int]:
        with self._swap_lock:
            self._adopt_locked()
            return self._bundle, self._version

    def swap(self, bundle: ModelBundle) -> int:  # pragma: no cover - guard
        raise RuntimeError("replica servers adopt published weights; "
                           "swap through the pool")

    def stats(self) -> dict:
        stats = super().stats()
        stats.update(replica=self._replica_index,
                     shards=sorted(self.index.shards),
                     blas_threads=self.blas_threads)
        return stats

    def metrics_snapshot(self) -> dict:
        """This process's registry with its samples, so the router's merged
        quantiles are exact (``{}`` with telemetry off)."""
        return get_telemetry().metrics.snapshot(include_samples=True)


# ----------------------------------------------------------------------
# Replica worker process
# ----------------------------------------------------------------------
def _owned_shards(replica: int, replicas: int, shards: int) -> List[int]:
    return [s for s in range(shards) if s % replicas == replica]


def _pin_blas_threads() -> Optional[int]:
    """One BLAS thread in this process; returns the count read back.

    A replica scores small micro-batches, and N replicas each running one
    BLAS thread per core contend for the same cores. Scores do not move:
    ``tests/serve/test_pool_swap.py`` replays every replica batch in the
    unpinned test process bit for bit. Only the OpenBLAS bundled with
    numpy's wheel is reachable; without it this does nothing and returns
    None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            setter = getattr(lib, f"{prefix}_set_num_threads64_", None)
            if setter is None:
                continue
            setter.argtypes = [ctypes.c_int]
            setter(1)
            getter = getattr(lib, f"{prefix}_get_num_threads64_", None)
            if getter is None:
                return None
            getter.restype = ctypes.c_int
            return int(getter())
    return None


def _replica_main(conn, replica: int, pool: "ServingPool") -> None:
    """Worker entry point (fork start method: the pool, its journals and
    the weight store arrive by inheritance, nothing is pickled).

    Runs three threads: the replica server's scheduler, a collector that
    streams resolved responses back in admission order, and the main
    thread serving the pipe: ``score`` admission, ``call`` (one
    allowlisted method of the server) and ``stop``.
    """
    # detach the parent's telemetry session -- the run log must have
    # exactly one writer (the router) -- but keep observing: when the
    # parent had telemetry on at fork time, install a child-local session
    # (fresh registry, no run log, same trace flag) whose snapshots are
    # shipped back over this pipe for the router's pool-wide merge
    from ..obs import MetricsRegistry, Telemetry
    from ..obs import telemetry as _telemetry_module
    parent_tel = _telemetry_module._ACTIVE
    if parent_tel.enabled:
        child_tel = Telemetry(runlog=None,
                              trace=getattr(parent_tel, "trace", False),
                              metrics=MetricsRegistry())
        _telemetry_module._ACTIVE = child_tel
    else:
        child_tel = None
        _telemetry_module._ACTIVE = _telemetry_module.DISABLED

    blas_threads = _pin_blas_threads()
    config = pool.config
    # child-side scheduler: queue bound >= the pool-wide bound, so parent
    # admission (and death re-dispatch) can never be shed inside a replica
    child_config = dataclasses.replace(
        config.server, max_queue=max(config.server.max_queue * 2,
                                     config.max_outstanding * 2))
    tenants = None
    if config.tenants_dir is not None:
        from .tenants import TenantRegistry

        # deltas are KBs each: every replica keeps its own registry over
        # the shared directory (only the backbone rides in shm)
        tenants = TenantRegistry(capacity=config.tenant_capacity,
                                 tenants_dir=config.tenants_dir)
    # the journals were inherited from a fork taken under the catalog lock
    server = pool._build_server(replica, ReplicaMatchServer,
                                config=child_config, store=pool._store,
                                replica=replica, tenants=tenants)
    server.blas_threads = blas_threads

    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):  # router gone: nothing to do
                pass

    results: "queue.Queue" = queue.Queue()

    def collect() -> None:
        while True:
            item = results.get()
            if item is None:
                return
            req_id, pending = item
            try:
                response = pending.result(timeout=None)
            except BaseException as error:
                send(("error", req_id, f"{type(error).__name__}: {error}"))
            else:
                send(("response", req_id, response.probs,
                      response.prediction, response.model_version,
                      response.bundle_name, response.batch_id,
                      response.batch_size, response.queue_seconds,
                      response.service_seconds, response.tenant,
                      response.trace))

    collector = threading.Thread(target=collect, name="repro-pool-collect",
                                 daemon=True)
    collector.start()
    server.start()

    push_halt = threading.Event()
    if child_tel is not None and config.metrics_interval_s > 0:
        def push_metrics() -> None:
            interval = max(config.metrics_interval_s, 0.05)
            while not push_halt.wait(interval):
                send(("metrics_push", replica, server.metrics_snapshot()))

        threading.Thread(target=push_metrics, name="repro-pool-metrics",
                         daemon=True).start()

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "score":
                _, req_id, pair, tenant = message
                try:
                    pending = server.submit(pair, tenant=tenant)
                except Overloaded as error:
                    send(("error", req_id, f"Overloaded: {error}"))
                except Exception as error:  # e.g. UnknownTenant on races
                    send(("error", req_id,
                          f"{type(error).__name__}: {error}"))
                else:
                    results.put((req_id, pending))
            elif kind == "call":
                _, qid, method, args = message
                try:
                    result = _invoke(server, method, args)
                except Exception as error:
                    result = RuntimeError(f"{type(error).__name__}: {error}")
                send(("reply", qid, result))
            elif kind == "stop":
                _, qid, drain = message
                push_halt.set()
                server.stop(drain=drain)
                results.put(None)
                collector.join(timeout=10.0)
                ack = {"replica": replica,
                       "responses": server.response_count}
                if child_tel is not None:
                    # final snapshot: counts from the drain are included
                    ack["metrics"] = server.metrics_snapshot()
                send(("reply", qid, ack))
                break
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


# ----------------------------------------------------------------------
# Router / pool
# ----------------------------------------------------------------------
class ServingPool:
    """Replicated, sharded serving over one shared-memory weight map.

    API-compatible with :class:`MatchServer` where the front ends touch
    it: ``submit`` / ``submit_match`` / ``score`` / ``score_batch`` /
    ``match`` / ``swap`` / ``catalog_add`` / ``catalog_remove`` /
    ``set_candidate_mode`` / ``stats`` / ``version`` / ``stop`` -- the
    HTTP and JSONL transports drive either interchangeably.
    """

    def __init__(self, bundle: ModelBundle,
                 config: Optional[PoolConfig] = None,
                 encoder=None, dense_kind: str = "ivf", dense_seed: int = 0,
                 dense_kwargs: Optional[dict] = None,
                 dense_train: bool = True,
                 clk_words: Optional[int] = None,
                 clk_encoder=None,
                 clk_threshold: float = 0.8,
                 candidate_mode: str = "sparse",
                 slo: Optional[SloTracker] = None,
                 drift: Optional[DriftMonitor] = None) -> None:
        self.config = config if config is not None else PoolConfig()
        self._bundle = bundle
        self._encoder = encoder
        self._dense_train = dense_train
        #: CLK (PPRL) serving: ``clk_encoder`` enables the single-party
        #: shape (the router encodes its own plaintext catalog adds);
        #: ``clk_words`` alone enables cross-party mode, where the pool
        #: only ever handles pre-encoded filters + ids. Either way every
        #: executor holds filter-only shards -- no salt, no plaintext.
        self._clk_encoder = clk_encoder
        if clk_encoder is not None:
            clk_inferred = clk_encoder.config.words
            if clk_words is not None and clk_words != clk_inferred:
                raise ValueError(
                    f"clk_words={clk_words} conflicts with clk_encoder "
                    f"({clk_inferred} words)")
            clk_words = clk_inferred
        self.clk_threshold = clk_threshold
        #: candidate mode -> factory of one shard of that mode's index;
        #: every executor shards its indexes over these
        k = self.config.server.default_top_k
        self._shard_makers = {"sparse": lambda: ServingIndex(default_k=k)}
        if encoder is not None:
            from .dense import DenseCandidateIndex

            dense_kwargs = dict(dense_kwargs or {})
            self._shard_makers["dense"] = lambda: DenseCandidateIndex(
                encoder, kind=dense_kind, default_k=k, seed=dense_seed,
                **dense_kwargs)
        if clk_words is not None:
            from ..privacy import ClkCandidateIndex

            self._shard_makers["clk"] = lambda: ClkCandidateIndex(
                words=int(clk_words), default_k=k)
        #: what ``/healthz`` names each configured candidate generator
        self._kinds = {mode: make().kind
                       for mode, make in self._shard_makers.items()}
        self._check_mode(candidate_mode)
        self._candidate_mode = candidate_mode

        # router-side tenant registry: in forked mode it only validates
        # tenant ids at admission (paths, no model); the serial fallback
        # hands it whole to its in-process MatchServer
        self._tenants = None
        if self.config.tenants_dir is not None:
            from .tenants import TenantRegistry

            self._tenants = TenantRegistry(
                capacity=self.config.tenant_capacity,
                tenants_dir=self.config.tenants_dir)

        #: per-shard journal of raw records: the source every executor
        #: builds its shards from at start and on respawn (the postings/ANN
        #: structures themselves live only inside the owning executor)
        self._catalog: List[Dict[str, EntityRecord]] = [
            {} for _ in range(self.config.shards)]
        #: per-shard journal of packed CLK filters (same role as
        #: ``_catalog`` for the filter-only path); guarded by the same
        #: lock so a fork snapshots both journals consistently
        self._clk_catalog: List[Dict[str, object]] = [
            {} for _ in range(self.config.shards)]
        self._catalog_lock = threading.RLock()

        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._inflight: Dict[int, _Inflight] = {}
        self._gathers: Dict[int, _ReplyGather] = {}
        self._req_ids = itertools.count(1)
        self._replicas: List[_Replica] = []
        self._collector: Optional[threading.Thread] = None
        self._wake_recv = None
        self._wake_send = None
        self._store: Optional[SharedBundleWeights] = None
        self._server: Optional[MatchServer] = None   # the serial executor
        self._serial = False
        #: executors splitting the shards: the replicas, or one serial server
        self._executors = self.config.replicas
        self._version = 1
        self._started = False
        self._closed = False
        self._stopping = False      # suppresses respawn/redispatch
        self._collector_halt = False  # router thread exit flag
        self._swap_lock = threading.Lock()

        self.request_count = 0
        self.response_count = 0
        self.shed_count = 0
        self.redispatch_count = 0
        self.respawn_count = 0
        self.death_count = 0

        # router-owned observability: the router sees every admission,
        # response, shed and error, so pool-level SLO/drift tracking lives
        # here (replicas run monitor=False); the serial fallback hands
        # these same objects -- and the tracer -- to its in-process server
        self._slo = slo if slo is not None else SloTracker()
        self._drift = drift if drift is not None else DriftMonitor()
        self.request_tracer = RequestTracer()
        #: label -> most recent metrics snapshot shipped by that replica
        self._replica_metrics: Dict[str, dict] = {}
        self._metrics_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def is_running(self) -> bool:
        return self._started and not self._closed

    @property
    def serial(self) -> bool:
        """True when running the in-process fallback (no fork / no shm)."""
        return self._serial

    def start(self) -> "ServingPool":
        if self._started:
            return self
        self._closed = False
        self._stopping = False
        self._collector_halt = False
        self._version = 1
        if fork_available():
            store = SharedBundleWeights(
                self._bundle.model, replicas=self.config.replicas,
                guard_timeout_s=self.config.guard_timeout_s)
            if store.is_shared:
                self._store = store
                self._store.publish(self._bundle.model, self._bundle.name,
                                    self._bundle.threshold,
                                    live=())  # nobody to guard against yet
            else:  # no /dev/shm: publishes would be invisible after fork
                store.close()
        self._serial = self._store is None
        if self._store is None:
            self._executors = 1  # one in-process server owns every shard
            with self._catalog_lock:
                self._server = self._build_server(
                    0, MatchServer, config=self.config.server,
                    tenants=self._tenants, slo=self._slo, drift=self._drift)
            self._server.request_tracer = self.request_tracer
            self._server.start()
        else:
            self._executors = self.config.replicas
            ctx = mp.get_context("fork")
            self._wake_recv, self._wake_send = ctx.Pipe(duplex=False)
            self._replicas = [self._spawn_replica(index)
                              for index in range(self.config.replicas)]
            self._collector = threading.Thread(target=self._collect_loop,
                                               name="repro-pool-router",
                                               daemon=True)
            self._collector.start()
        self._started = True
        return self

    def _build_server(self, executor: int, make, **kwargs) -> MatchServer:
        """``make`` (MatchServer or ReplicaMatchServer) over sharded
        indexes of the shards ``executor`` owns, filled from the journals:
        run it under the catalog lock, or in a fork taken under it."""
        owned = _owned_shards(executor, self._executors, self.config.shards)
        indexes = {mode: ShardedIndex(make_shard, self.config.shards, owned)
                   for mode, make_shard in self._shard_makers.items()}
        records = [record for shard in owned
                   for record in self._catalog[shard].values()]
        indexes["sparse"].add_many(records)
        if "dense" in indexes:
            indexes["dense"].add_many(records)
            if self._dense_train:
                indexes["dense"].train()
        if "clk" in indexes:
            indexes["clk"].add_clk_many(
                entry for shard in owned
                for entry in self._clk_catalog[shard].items())
        kwargs.update({_INDEX_ARGS[mode]: index
                       for mode, index in indexes.items()})
        return make(self._bundle, clk_threshold=self.clk_threshold,
                    candidate_mode=self._candidate_mode, **kwargs)

    def _spawn_replica(self, index: int) -> _Replica:
        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        # hold the catalog lock across the fork so the journals the child
        # inherits are not mid-mutation
        with self._catalog_lock:
            proc = ctx.Process(
                target=_replica_main, args=(child_conn, index, self),
                daemon=True, name=f"repro-pool-replica-{index}")
            proc.start()
        child_conn.close()
        return _Replica(index, proc, parent_conn)

    def __enter__(self) -> "ServingPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Pool-wide graceful stop: close admission, finish (or fail) the
        in-flight work, stop every replica with the same ``drain``
        semantics, reap the processes and release the shared segments."""
        if not self._started:
            self._closed = True
            return
        timeout = self.config.drain_timeout_s if timeout is None else timeout
        with self._lock:
            self._closed = True
        if self._serial:
            self._server.stop(drain=drain)
            self._started = False
            return
        if drain:
            deadline = time.monotonic() + timeout
            with self._drained:
                while self._inflight:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._drained.wait(remaining)
        with self._lock:
            leftovers = list(self._inflight.values())
            self._inflight.clear()
            for replica in self._replicas:
                replica.outstanding_pairs = 0
                replica.outstanding_tokens = 0
        for inflight in leftovers:
            try:
                inflight.pending._fail(
                    Overloaded("pool stopped before scoring"))
            except RuntimeError:  # pragma: no cover - resolved in a race
                pass
        self._stopping = True
        # the collector keeps running here: it must still deliver the
        # replicas' final responses and the stop acks
        acks = self._gather("stop", {replica.index: (drain,)
                                     for replica in self._replicas},
                            timeout=max(timeout, 1.0))
        # best-effort: a wedged replica is terminated below. Acks that did
        # arrive carry each replica's final metrics snapshot -- harvest
        # them so a post-stop metrics_snapshot() still sums the whole run
        for index, ack in acks.items():
            if isinstance(ack, dict) and "metrics" in ack:
                with self._metrics_lock:
                    self._replica_metrics[f"replica{index}"] = ack["metrics"]
        for replica in self._replicas:
            replica.proc.join(timeout=5.0)
            if replica.proc.is_alive():  # pragma: no cover - wedged child
                replica.proc.terminate()
                replica.proc.join(timeout=1.0)
            if replica.proc.is_alive():  # pragma: no cover - SIGTERM is
                # caught or masked in the child (forked replicas inherit
                # whatever handlers the host application installed)
                replica.proc.kill()
                replica.proc.join(timeout=1.0)
            replica.live = False
        self._collector_halt = True
        self._wake()
        if self._collector is not None:
            self._collector.join(timeout=5.0)
            self._collector = None
        for replica in self._replicas:
            try:
                replica.conn.close()
            except OSError:  # pragma: no cover
                pass
        if self._store is not None:
            self._store.close()
            self._store = None
        self._started = False

    def _wake(self) -> None:
        if self._wake_send is not None:
            try:
                self._wake_send.send(0)
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _pick_replica(self) -> Optional[_Replica]:
        """Least-outstanding-pairs dispatch with a token-estimate
        tiebreak; None when every live replica is at its queue bound.
        Caller holds ``_lock``."""
        best = None
        for replica in self._replicas:
            if not replica.live:
                continue
            if replica.outstanding_pairs >= self.config.max_outstanding:
                continue
            key = (replica.outstanding_pairs, replica.outstanding_tokens,
                   replica.index)
            if best is None or key < best[0]:
                best = (key, replica)
        return best[1] if best is not None else None

    def submit(self, pair: CandidatePair,
               tenant: Optional[str] = None) -> PendingResponse:
        """Queue one score request on the least-loaded replica; raises
        :class:`Overloaded` when the pool (or every replica queue) is
        full."""
        return self._submit_many([pair], tenant=tenant)[0]

    def _submit_many(self, pairs: Sequence[CandidatePair],
                     tenant: Optional[str] = None) -> List[PendingResponse]:
        """All-or-nothing admission of a request group (a match query's
        candidate fan-out is one group, like the single server's)."""
        if tenant is not None:
            # validate at the router: an unknown tenant must fail fast in
            # the caller, not surface as an opaque error reply from a
            # replica (forked replicas hold their own registries)
            registry = self._tenants
            if registry is None or not registry.has(tenant):
                from .tenants import UnknownTenant

                raise UnknownTenant(tenant)
        if self._serial:
            return self._server._submit_many(pairs, tenant=tenant)
        started = time.perf_counter()
        tel = get_telemetry()
        tracing = tel.enabled and getattr(tel, "trace", False)
        assignments: List[Tuple[int, _Replica]] = []
        pendings: List[PendingResponse] = []
        with self._lock:
            if self._closed or not self._started:
                raise Overloaded("pool is stopped",
                                 queue_depth=len(self._inflight))
            if len(self._inflight) + len(pairs) > self.config.server.max_queue:
                self.shed_count += 1
                self._slo.observe_shed(tenant, len(pairs))
                if tel.enabled:
                    tel.metrics.counter("pool.shed").inc()
                raise Overloaded(
                    f"pool queue full ({len(self._inflight)}"
                    f"/{self.config.server.max_queue})",
                    queue_depth=len(self._inflight))
            staged: List[Tuple[_Replica, int]] = []
            for pair in pairs:
                replica = self._pick_replica()
                if replica is None:
                    for staged_replica, tokens in staged:  # roll back
                        staged_replica.outstanding_pairs -= 1
                        staged_replica.outstanding_tokens -= tokens
                    self.shed_count += 1
                    self._slo.observe_shed(tenant, len(pairs))
                    if tel.enabled:
                        tel.metrics.counter("pool.shed").inc()
                    raise Overloaded("every replica queue is full",
                                     queue_depth=len(self._inflight))
                tokens = _approx_tokens(pair)
                replica.outstanding_pairs += 1
                replica.outstanding_tokens += tokens
                staged.append((replica, tokens))
            arrived = time.perf_counter()
            for pair, (replica, tokens) in zip(pairs, staged):
                req_id = next(self._req_ids)
                pending = PendingResponse()
                ctx = None
                if tracing:
                    # admission spans router-side staging; dispatch is
                    # stamped here (the pipe write below is fire-and-
                    # forget), so pipe transit lands in the respond span
                    ctx = TraceContext.admit(tenant, now=started)
                    ctx.dispatched(replica.index, now=arrived)
                self._inflight[req_id] = _Inflight(pending, pair,
                                                   replica.index, tokens,
                                                   arrived, tenant=tenant,
                                                   trace=ctx)
                pendings.append(pending)
                assignments.append((req_id, replica))
            self.request_count += len(pairs)
        dead: List[Tuple[int, _Replica]] = []
        for (req_id, replica), pair in zip(assignments, pairs):
            try:
                replica.send(("score", req_id, pair, tenant))
            except (BrokenPipeError, OSError):
                dead.append((req_id, replica))
        for req_id, replica in dead:
            self._on_replica_death(replica)
        if tel.enabled:
            tel.metrics.counter("pool.dispatches").inc(len(pairs))
            tel.metrics.timer("pool.dispatch_seconds").observe(
                time.perf_counter() - started)
            self._gauge_outstanding(tel)
        return pendings

    def _gauge_outstanding(self, tel) -> None:
        for replica in self._replicas:
            tel.metrics.gauge(
                f"pool.replica{replica.index}.outstanding").set(
                    replica.outstanding_pairs)

    def submit_match(self, record: EntityRecord,
                     k: Optional[int] = None,
                     tenant: Optional[str] = None) -> PendingMatch:
        """Scatter the candidate query across every executor's shards,
        merge the per-shard top-k, then admit one score request per
        candidate (atomically, like the single server)."""
        if self._candidate_mode == "clk":
            # the pool-level privacy pin: in CLK mode no plaintext record
            # may enter the serving path, in serial and forked mode alike
            raise ValueError(
                "clk candidate mode serves clk_match queries only; "
                "plaintext match needs candidate_mode sparse or dense")
        k = self.config.server.default_top_k if k is None else int(k)
        vector = None
        if self._candidate_mode == "dense":
            # embed once in the router; every shard re-ranks this vector
            vector = self._encoder.encode_record(record)
        candidates = merge_topk(
            self._query("candidates", (record, k, vector)).values(), k)
        if not candidates:
            return PendingMatch(record.record_id, [])
        pairs = [CandidatePair(record, candidate)
                 for candidate, _ in candidates]
        pendings = self._submit_many(pairs, tenant=tenant)
        entries = [(candidate, score, pending)
                   for (candidate, score), pending in zip(candidates,
                                                          pendings)]
        return PendingMatch(record.record_id, entries)

    def clk_match(self, record_id: str, clk, k: Optional[int] = None):
        """Dice top-k over the pool's CLK shards for one pre-encoded
        query filter: scatter the filter, merge per-shard ``(id, score)``
        partials with the deterministic ``(-score, id)`` rule, flag
        matches at ``clk_threshold``.  Requests and replies carry only
        filter bytes, ids, and scores."""
        self._check_mode("clk")
        k = self.config.server.default_top_k if k is None else int(k)
        started = time.perf_counter()
        partials = self._query("clk_candidates",
                               (np.asarray(clk, dtype=np.uint64), k))
        merged = top_ranked((hit for partial in partials.values()
                             for hit in partial), k)
        self.request_count += 1
        self.response_count += 1
        return clk_response(record_id, merged, self.clk_threshold, started)

    def _query(self, method: str, args: tuple) -> Dict[int, object]:
        """``_call`` on each executor that owns a shard: one that owns
        none (``replicas > shards``) could only answer an empty list."""
        return self._call(method, owners={
            index: args for index in range(self._executors)
            if _owned_shards(index, self._executors, self.config.shards)})

    def _call(self, method: str, args: tuple = (),
              owners: Optional[Dict[int, tuple]] = None) -> Dict[int, object]:
        """Run the executor method ``method`` and gather its results by
        executor index: with ``args`` on every live executor, or on each
        executor in ``owners`` with that executor's own argument tuple.

        The in-process server answers inline.  A forked replica that
        raises, dies or misses ``gather_timeout_s`` is missing from the
        result (counted as ``pool.partial_gathers``)."""
        if self._serial:
            calls = owners.items() if owners is not None else [(0, args)]
            return {index: _invoke(self._server, method, call_args)
                    for index, call_args in calls}
        if owners is None:
            with self._lock:
                owners = {replica.index: args for replica in self._replicas
                          if replica.live}
        replies = self._gather("call", {
            index: (method, call_args)
            for index, call_args in owners.items()},
            timeout=self.config.gather_timeout_s)
        results = {index: reply for index, reply in replies.items()
                   if not isinstance(reply, Exception)}
        if len(results) < len(owners):
            tel = get_telemetry()
            if tel.enabled:
                tel.metrics.counter("pool.partial_gathers").inc()
        return results

    def _gather(self, kind: str, payloads: Dict[int, tuple],
                timeout: float) -> Dict[int, object]:
        """Send ``(kind, qid, *payload)`` to each live replica named in
        ``payloads`` and gather one reply per survivor."""
        with self._lock:
            live = [replica for replica in self._replicas
                    if replica.live and replica.index in payloads]
            qid = next(self._req_ids)
            gather = _ReplyGather(replica.index for replica in live)
            self._gathers[qid] = gather
        for replica in live:
            try:
                replica.send((kind, qid) + payloads[replica.index])
            except (BrokenPipeError, OSError):
                self._on_replica_death(replica)
        replies = gather.wait(timeout)
        with self._lock:
            self._gathers.pop(qid, None)
        return dict(replies)

    # ------------------------------------------------------------------
    # Collector / fault containment
    # ------------------------------------------------------------------
    def _collect_loop(self) -> None:
        while not self._collector_halt:
            with self._lock:
                conns = {replica.conn: replica
                         for replica in self._replicas if replica.live}
            try:
                ready = _conn_wait(list(conns) + [self._wake_recv],
                                   timeout=0.25)
            except OSError:  # pragma: no cover - torn down mid-wait
                continue
            for obj in ready:
                if obj is self._wake_recv:
                    try:
                        self._wake_recv.recv()
                    except (EOFError, OSError):  # pragma: no cover
                        pass
                    continue
                replica = conns.get(obj)
                if replica is None:
                    continue
                try:
                    message = obj.recv()
                except (EOFError, OSError):
                    self._on_replica_death(replica)
                    continue
                self._handle_message(replica, message)

    def _handle_message(self, replica: _Replica, message) -> None:
        kind = message[0]
        if kind == "response":
            (_, req_id, probs, prediction, version, bundle_name,
             batch_id, batch_size, queue_seconds, service_seconds,
             tenant, trace) = message
            self._resolve(req_id, replica, ScoreResponse(
                probs=np.asarray(probs), prediction=int(prediction),
                model_version=int(version), bundle_name=bundle_name,
                batch_id=int(batch_id), batch_size=int(batch_size),
                queue_seconds=float(queue_seconds),
                service_seconds=float(service_seconds),
                replica=replica.index, tenant=tenant, trace=trace))
        elif kind == "error":
            _, req_id, detail = message
            inflight = self._finish(req_id, replica)
            if inflight is not None:
                self._slo.observe_error(inflight.tenant)
                try:
                    inflight.pending._fail(RuntimeError(detail))
                except RuntimeError:  # pragma: no cover - double resolve
                    pass
        elif kind == "metrics_push":
            _, index, snapshot = message
            with self._metrics_lock:
                self._replica_metrics[f"replica{index}"] = snapshot
        elif kind == "reply":
            _, qid, payload = message
            with self._lock:
                gather = self._gathers.get(qid)
            if gather is not None:
                gather.reply(replica.index, payload)

    def _finish(self, req_id: int, replica: _Replica) -> Optional[_Inflight]:
        with self._lock:
            inflight = self._inflight.pop(req_id, None)
            if inflight is not None:
                replica.outstanding_pairs -= 1
                replica.outstanding_tokens -= inflight.tokens
                if not self._inflight:
                    self._drained.notify_all()
        return inflight

    def _resolve(self, req_id: int, replica: _Replica,
                 response: ScoreResponse) -> None:
        inflight = self._finish(req_id, replica)
        if inflight is None:  # late answer for a re-dispatched request
            return
        # counted before the pending resolves, like response_count: a
        # client holding its response never reads a stale /metrics
        self.response_count += 1
        now = time.perf_counter()
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter("pool.responses").inc()
        if inflight.trace is not None:
            # stitch the replica-reported stage timings into the parent-
            # side tree BEFORE resolving, so the client's response carries
            # the finished tree rather than the raw replica payload
            payload = response.trace if isinstance(response.trace, dict) \
                else {}
            encode = float(payload.get("encode_seconds", 0.0))
            tree = stitch_trace(
                inflight.trace, t_done=now,
                queue_seconds=max(response.queue_seconds - encode, 0.0),
                batch_seconds=encode,
                forward_seconds=response.service_seconds,
                forward_cpu_seconds=payload.get("forward_cpu_seconds"),
                batch_id=response.batch_id,
                batch_size=response.batch_size,
                replica=replica.index)
            response.trace = tree
            self.request_tracer.record(tree)
            if tel.enabled:
                tel.event("serve.trace", **tree)
        try:
            inflight.pending._resolve(response)
        except RuntimeError:  # pragma: no cover - double resolve
            pass
        self._slo.observe(inflight.tenant, now - inflight.arrived)
        fired = self._drift.observe(
            inflight.tenant, [float(response.probs[1])],
            [int(response.prediction)],
            version=f"{response.bundle_name}@{response.model_version}")
        if tel.enabled:
            for event in fired:
                tel.metrics.counter("serve.drift.events").inc()
                tel.event("serve.drift", **event)
            tel.metrics.gauge("serve.drift.active").set(
                1.0 if self._drift.active else 0.0)
            tel.metrics.quantiles("pool.request_seconds").observe(
                now - inflight.arrived)

    def _on_replica_death(self, replica: _Replica) -> None:
        """Contain a dead worker: detach it, re-dispatch its in-flight
        requests to survivors (scoring is pure; nothing accepted is
        lost), and respawn a replacement over the current journal."""
        with self._lock:
            if not replica.live:
                return
            replica.live = False
            orphans = [(req_id, inflight)
                       for req_id, inflight in self._inflight.items()
                       if inflight.replica == replica.index]
            for gather in self._gathers.values():
                gather.drop(replica.index)
        self.death_count += 1
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter("pool.replica_deaths").inc()
        try:
            replica.conn.close()
        except OSError:  # pragma: no cover
            pass
        if not self._stopping and self.config.respawn:
            fresh = self._spawn_replica(replica.index)
            with self._lock:
                self._replicas[replica.index] = fresh
            self.respawn_count += 1
            if tel.enabled:
                tel.metrics.counter("pool.respawns").inc()
            self._wake()  # collector must add the new pipe to its wait set
        for req_id, inflight in orphans:
            self._redispatch(req_id, inflight)

    def _redispatch(self, req_id: int, inflight: _Inflight) -> None:
        """Move an accepted request to a live replica.  Queue bounds are
        deliberately ignored: admission happened once; a death must not
        turn an accepted request into a shed one."""
        while True:
            with self._lock:
                if req_id not in self._inflight:
                    return
                target = None
                for replica in self._replicas:
                    if replica.live and (
                            target is None
                            or replica.outstanding_pairs
                            < target.outstanding_pairs):
                        target = replica
                if target is None:
                    inflight_obj = self._inflight.pop(req_id)
                    if not self._inflight:
                        self._drained.notify_all()
                else:
                    inflight.replica = target.index
                    target.outstanding_pairs += 1
                    target.outstanding_tokens += inflight.tokens
            if target is None:
                try:
                    inflight.pending._fail(Overloaded(
                        "request lost: no live replica to re-dispatch to"))
                except RuntimeError:  # pragma: no cover
                    pass
                return
            try:
                target.send(("score", req_id, inflight.pair,
                             inflight.tenant))
            except (BrokenPipeError, OSError):
                self._on_replica_death(target)
                continue
            self.redispatch_count += 1
            tel = get_telemetry()
            if tel.enabled:
                tel.metrics.counter("pool.redispatched").inc()
            return

    # ------------------------------------------------------------------
    # Model management
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        return self._version

    @property
    def bundle(self) -> ModelBundle:
        return self._bundle

    def swap(self, bundle: ModelBundle) -> int:
        """Publish ``bundle`` into the shared store: one version bump
        atomically flips every replica at its next batch boundary."""
        with self._swap_lock:
            if self._serial:
                version = self._server.swap(bundle)
            else:
                if self._store is None:
                    raise RuntimeError("pool is not started")
                with self._lock:
                    live = [replica.index for replica in self._replicas
                            if replica.live]
                version = self._store.publish(bundle.model, bundle.name,
                                              bundle.threshold, live=live)
            self._bundle = bundle
            self._version = version
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter("pool.swaps").inc()
            tel.event("pool.swap", version=version, bundle=bundle.name)
        return version

    # ------------------------------------------------------------------
    # Candidate catalog
    # ------------------------------------------------------------------
    @property
    def candidate_mode(self) -> str:
        return self._candidate_mode

    def _check_mode(self, mode: str) -> None:
        if mode not in _INDEX_ARGS:
            raise ValueError(
                "candidate_mode must be 'sparse', 'dense', or 'clk'")
        if mode not in self._kinds:
            raise ValueError(f"no {mode} index configured")

    def set_candidate_mode(self, mode: str) -> str:
        """Flip the candidate generator pool-wide; every executor has
        adopted it when this returns (in-flight gathers finish on the
        old one)."""
        self._check_mode(mode)
        self._candidate_mode = mode
        if self._started:
            self._call("set_candidate_mode", (mode,))
        tel = get_telemetry()
        if tel.enabled:
            tel.event("pool.candidate_mode", mode=mode)
        return mode

    def _owner(self, shard: int) -> int:
        return shard % self._executors

    def _route(self, method: str, per_owner: Dict[int, list]) -> None:
        """Apply per-owner catalog writes and wait for the acks
        (read-your-writes for subsequent matches).  A dead owner is
        skipped: its respawn rebuilds from the journal, which the caller
        has already updated."""
        if self._started and per_owner:
            self._call(method, owners={owner: (items,) for owner, items
                                       in per_owner.items()})

    def catalog_size(self) -> int:
        with self._catalog_lock:
            return sum(len(shard) for shard in self._catalog)

    def catalog_add(self, records) -> int:
        """Route records to their owning shards (journal + live executor);
        returns the number of ids new to the catalog.

        With a ``clk_encoder`` configured (single-party mode) each record
        is also encoded *here, once, router-side* and the filter routed to
        the owning CLK shard -- executors never need the salt."""
        records = list(records)
        filters = None
        if self._clk_encoder is not None and records:
            filters = self._clk_encoder.encode_records(records)
        per_owner: Dict[int, List[EntityRecord]] = {}
        clk_per_owner: Dict[int, list] = {}
        fresh = 0
        with self._catalog_lock:
            for i, record in enumerate(records):
                shard = shard_of(record.record_id, self.config.shards)
                if record.record_id not in self._catalog[shard]:
                    fresh += 1
                self._catalog[shard][record.record_id] = record
                per_owner.setdefault(self._owner(shard), []).append(record)
                if filters is not None:
                    self._clk_catalog[shard][record.record_id] = filters[i]
                    clk_per_owner.setdefault(self._owner(shard), []).append(
                        (record.record_id, filters[i]))
        self._route("catalog_add", per_owner)
        self._route("catalog_add_clk", clk_per_owner)
        return fresh

    def catalog_add_clk(self, entries) -> int:
        """Route pre-encoded ``(record_id, packed filter)`` entries to
        their owning CLK shards (journal + live executor); returns the
        number of new ids.  The cross-party ingest path: no plaintext
        exists anywhere in this flow."""
        self._check_mode("clk")
        per_owner: Dict[int, list] = {}
        fresh = 0
        with self._catalog_lock:
            for record_id, filt in entries:
                record_id = str(record_id)
                filt = np.asarray(filt, dtype=np.uint64)
                shard = shard_of(record_id, self.config.shards)
                if record_id not in self._clk_catalog[shard]:
                    fresh += 1
                self._clk_catalog[shard][record_id] = filt
                per_owner.setdefault(self._owner(shard), []).append(
                    (record_id, filt))
        self._route("catalog_add_clk", per_owner)
        return fresh

    def clk_catalog_size(self) -> int:
        with self._catalog_lock:
            return sum(len(shard) for shard in self._clk_catalog)

    def catalog_remove(self, record_ids) -> int:
        removed = 0
        per_owner: Dict[int, List[str]] = {}
        with self._catalog_lock:
            for record_id in record_ids:
                shard = shard_of(record_id, self.config.shards)
                plain = self._catalog[shard].pop(record_id, None) is not None
                filt = self._clk_catalog[shard].pop(record_id,
                                                    None) is not None
                if plain or filt:
                    removed += 1
                per_owner.setdefault(self._owner(shard), []).append(
                    record_id)
        self._route("catalog_remove", per_owner)
        return removed

    # ------------------------------------------------------------------
    # Synchronous conveniences (mirror MatchServer's)
    # ------------------------------------------------------------------
    def process_once(self) -> int:
        """Pool scheduling happens in the executors; there is nothing to
        drive inline.  Exists for front-end compatibility."""
        return 0

    def score(self, pair: CandidatePair,
              timeout: Optional[float] = None,
              tenant: Optional[str] = None) -> ScoreResponse:
        return self.submit(pair, tenant=tenant).result(timeout)

    def score_batch(self, pairs: Sequence[CandidatePair],
                    timeout: Optional[float] = None,
                    tenants: Optional[Sequence[Optional[str]]] = None
                    ) -> List[ScoreResponse]:
        if tenants is None:
            tenants = [None] * len(pairs)
        if len(tenants) != len(pairs):
            raise ValueError(f"tenants has {len(tenants)} entries for "
                             f"{len(pairs)} pairs")
        pendings = []
        for pair, tenant in zip(pairs, tenants):
            while True:
                try:
                    pendings.append(self.submit(pair, tenant=tenant))
                    break
                except Overloaded:
                    if not self.is_running:
                        raise
                    time.sleep(0.0005)
        return [pending.result(timeout) for pending in pendings]

    def match(self, record: EntityRecord, k: Optional[int] = None,
              timeout: Optional[float] = None,
              tenant: Optional[str] = None):
        return self.submit_match(record, k, tenant=tenant).result(timeout)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def batch_logs(self) -> Dict[int, list]:
        """Per-executor micro-batch logs (requires ``record_batches``);
        the pool benchmark replays these offline for the bit-identity
        contract."""
        return self._call("batch_log")

    # ------------------------------------------------------------------
    # Observability surfaces (MatchServer offers the same three)
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Cheap liveness payload for ``GET /healthz``: no scatter, no
        scoring -- only router-side state, safe for LB probes."""
        with self._lock:
            live = [replica.index for replica in self._replicas
                    if replica.live]
            outstanding = {str(replica.index): replica.outstanding_pairs
                           for replica in self._replicas}
            depth = len(self._inflight)
        payload = {
            "mode": "serial" if self.serial else "pool",
            "model_version": self.version,
            "bundle": self._bundle.name,
            "catalog_size": self.catalog_size(),
            "candidate_mode": self._candidate_mode,
            "candidate_index": self._kinds[self._candidate_mode],
            "queue_depth": depth,
            "replicas": {
                "configured": self.config.replicas,
                "live": live,
                "outstanding": outstanding,
                "deaths": self.death_count,
                "respawns": self.respawn_count,
            },
        }
        if "clk" in self._kinds:
            payload["clk_catalog_size"] = self.clk_catalog_size()
        if self._tenants is not None:
            tstats = self._tenants.stats()
            payload["tenants"] = {
                "registered": tstats["registered"],
                "loaded": tstats["loaded"],
                "capacity": tstats["capacity"],
            }
        return payload

    def slo_snapshot(self) -> dict:
        """Per-tenant SLO compliance plus drift state for ``GET /slo``."""
        return {
            "slo": self._slo.snapshot(),
            "drift": self._drift.snapshot(),
            "traces": self.request_tracer.snapshot(),
        }

    def metrics_snapshot(self, pull: bool = True) -> dict:
        """Pool-wide merged metrics: the router's registry plus the most
        recent snapshot of every forked replica, merged per metric kind
        (the serial server shares the router's registry).

        ``pull=True`` (the default) asks every live replica for its
        snapshot first so the merge reflects right-now counts instead of
        the last periodic push; pass ``False`` for a cheap cached read.
        """
        tel = get_telemetry()
        router = tel.metrics.snapshot(include_samples=True) \
            if tel.enabled else {}
        sources: Dict[str, dict] = {"router": router}
        replicas = {replica.index: () for replica in self._replicas
                    if replica.live}
        if pull and replicas and not self._closed:
            replies = self._call("metrics_snapshot", owners=replicas)
            with self._metrics_lock:
                for index, snapshot in replies.items():
                    self._replica_metrics[f"replica{index}"] = snapshot
        with self._metrics_lock:
            sources.update({label: dict(snapshot) for label, snapshot
                            in self._replica_metrics.items()})
        merged = merge_snapshots(sources, strict=False)
        return {"merged": merged,
                "sources": dict(sorted(sources.items()))}

    def stats(self) -> dict:
        with self._lock:
            outstanding = {replica.index: replica.outstanding_pairs
                           for replica in self._replicas}
            live = [replica.index for replica in self._replicas
                    if replica.live]
            depth = len(self._inflight)
        stats = {
            "mode": "serial" if self.serial else "pool",
            "replicas": self.config.replicas,
            "shards": self.config.shards,
            "live": live,
            "model_version": self.version,
            "candidate_mode": self._candidate_mode,
            "queue_depth": depth,
            "outstanding": outstanding,
            "requests": self.request_count,
            "responses": self.response_count,
            "shed": self.shed_count,
            "redispatched": self.redispatch_count,
            "deaths": self.death_count,
            "respawns": self.respawn_count,
            "catalog_records": self.catalog_size(),
            "replica_stats": dict(sorted(self._call("stats").items())),
        }
        if "clk" in self._kinds:
            stats["clk_catalog_records"] = self.clk_catalog_size()
            stats["clk_threshold"] = self.clk_threshold
        if self._serial:
            # the in-process server admits and answers its own requests
            for key in ("requests", "responses", "shed"):
                stats[key] += stats["replica_stats"][0][key]
        return stats
