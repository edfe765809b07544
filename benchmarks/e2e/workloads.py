"""The four workloads of the end-to-end benchmark (one per child process).

``run.py`` starts a fresh interpreter per run with BLAS pinned to one
thread, ``src`` on the import path and the model cache inside the
checkout's build directory, then runs this file::

    python3 benchmarks/e2e/workloads.py --workload score-open --seed 1 \\
        --seconds 20 --trace 0 --build-dir .bench_build

The program under test receives only inputs that the repository's own
generators build from ``--seed``. README.md explains why each workload
exists and defines every metric.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import json
import math
import os
import queue
import shutil
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import (
    CPU_QUANTILE, LOW_QUANTILE, Outcome, across_windows, cpu_seconds,
    environment, load_spec, percentile,
)
from tracing import NullTracer, Tracer

MODEL = "minilm-base"
#: arrivals per second of both open-loop workloads. One server's worker
#: thread spends 2.2-2.8 ms of CPU per request here on the 2-vCPU host,
#: so it is 55-70% busy and forms batches of 1.3 rows on average
RATE = 250
#: micro-batches replayed offline per open-loop run
REPLAY_BATCHES = 50
#: queries checked against reference indexes after match-churn
CHECK_QUERIES = 30
#: mean recall@5 of the IVF candidates (default nlist/nprobe) against an
#: exact float32 scan; seeds 1-10 measure 0.45-0.70 on this catalog, so
#: the floor catches a broken index, not a small recall change
DENSE_RECALL_FLOOR = 0.3
#: test F1 (percent) every fit must reach; catches a collapsed model
#: (all-negative scores 0), not a small quality change
FIT_F1_FLOOR = 20.0
#: a request unresolved this long after the last arrival counts as failed
STALL_S = 10.0


@dataclasses.dataclass(frozen=True)
class Profile:
    """Input sizes and repetitions; ``--smoke`` swaps in a tiny one."""

    #: set-ups per run, at least; more while the budget after the
    #: measured interval (teardowns included) lasts, so the 0.03-0.3 s
    #: set-ups repeat 10-70 times and match-churn's ~3 s one 3 times
    setups: int = 3
    setup_budget_s: float = 3.0
    lead_in_s: float = 1.0
    window_s: float = 1.0
    #: entities per open-loop generator (two generators feed the stream)
    pair_entities: int = 400
    #: SEMI-REL entities behind the match-churn catalog (~1.75 records
    #: each on the catalog side)
    catalog_entities: int = 1100
    #: PromptEMConfig overrides of a fit: the paper's LST stages (teacher,
    #: MC-Dropout pseudo-labels, student with MC-EL2N pruning) on a short
    #: schedule, so a fit takes under two seconds and a run holds ~10
    fit: Tuple[Tuple[str, int], ...] = (
        ("teacher_epochs", 5), ("student_epochs", 6), ("mc_passes", 4),
        ("unlabeled_cap", 40), ("prune_frequency", 3))
    fit_labeled: int = 16
    fit_valid: int = 24


FULL = Profile()
SMOKE = Profile(setups=1, setup_budget_s=0.0, lead_in_s=0.2,
                window_s=0.25, pair_entities=60,
                catalog_entities=120,
                fit=(("teacher_epochs", 2), ("student_epochs", 3),
                     ("mc_passes", 2), ("unlabeled_cap", 16),
                     ("prune_frequency", 3)),
                fit_labeled=8, fit_valid=12)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def load_bundle():
    """The serving bundle: the pre-trained backbone in the t2 template
    with designed label words (what ``repro run --save-bundle`` packages,
    before fine-tuning; scoring cost does not depend on the weights)."""
    from repro.core import PromptModel, Verbalizer, make_template
    from repro.lm import load_pretrained
    from repro.serve import ModelBundle

    lm, tokenizer = load_pretrained(MODEL)
    model = PromptModel(lm, tokenizer, make_template("t2", tokenizer,
                                                     max_len=96),
                        Verbalizer.designed(tokenizer.vocab))
    model.eval()
    return lm, tokenizer, ModelBundle.from_model(model, threshold=0.5,
                                                 name=MODEL)


def score_stream(seed: int, entities: int, count: int) -> list:
    """Open-loop request stream: half short REL-HETER-shaped pairs, half
    long SEMI-TEXT-c-shaped pairs (the t2 template truncates them at 96
    tokens), and half of all requests repeat an earlier pair."""
    from repro.data.generators.base import GeneratorConfig
    from repro.data.generators.products import SemiTextCGenerator
    from repro.data.generators.restaurants import RelHeterGenerator

    rest = entities // 4
    sources = [
        RelHeterGenerator(GeneratorConfig(
            num_entities=entities, extra_right_rows=rest)).build(seed=seed),
        SemiTextCGenerator(GeneratorConfig(
            num_entities=entities, extra_right_rows=rest,
            corruption_strength=0.6)).build(seed=seed),
    ]
    pools = [d.train + d.valid + d.test for d in sources]
    rng = np.random.default_rng(seed)
    orders = [rng.permutation(len(pool)) for pool in pools]
    taken = [0, 0]
    stream: list = []
    for _ in range(count):
        if stream and rng.random() < 0.5:
            stream.append(stream[int(rng.integers(len(stream)))])
            continue
        kind = int(rng.random() < 0.5)
        pool, order = pools[kind], orders[kind]
        stream.append(pool[order[taken[kind] % len(order)]])
        taken[kind] += 1
    return stream


def mutated(record, revision: int):
    """A catalog re-add: same id, one added value, so every index must
    replace the old entry."""
    values = dict(record.values)
    values["revision"] = f"rev{revision}"
    return dataclasses.replace(record, values=values)


# ----------------------------------------------------------------------
# Trace patches: public callables, patched where their callers look them up
# ----------------------------------------------------------------------
def _engine_measure(args, kwargs):
    stats = args[0].stats
    before = (stats.pairs, stats.rows, stats.batches, stats.tokens_real,
              stats.tokens_padded)

    def done(result):
        after = args[0].stats
        return {key: now - then for key, now, then in zip(
            ("pairs", "rows", "batches", "tokens_real", "tokens_padded"),
            (after.pairs, after.rows, after.batches, after.tokens_real,
             after.tokens_padded), before)}
    return done


def forward_cost(config, rows: int, tokens: int):
    """FLOPs and bytes of the scoring forward's matrix products, computed
    from tensor shapes (float32 operands and results, each touched once)."""
    d, heads = config.d_model, config.num_heads
    head_dim = d // heads
    bt = rows * tokens
    products = [(1, bt, d, 3 * d),                    # fused q/k/v
                (rows * heads, tokens, head_dim, tokens),   # scores
                (rows * heads, tokens, tokens, head_dim),   # context
                (1, bt, d, d),                        # attention out
                (1, bt, d, config.d_ff),              # FFN up
                (1, bt, config.d_ff, d)]              # FFN down
    products = products * config.num_layers + [
        (1, rows, d, d), (1, rows, d, config.vocab_size)]  # MLM head
    flop = sum(2 * b * m * k * n for b, m, k, n in products)
    nbytes = sum(4 * b * (m * k + k * n + m * n) for b, m, k, n in products)
    return flop, nbytes


def _fastpath_measure(args, kwargs):
    model, encodings = args[0], args[1]
    tile = kwargs.get("tile", args[2] if len(args) > 2 else 1)
    rows = len(encodings) * tile
    flop, nbytes = forward_cost(model.lm.config, rows,
                                max(len(e) for e in encodings))
    extra = {"rows": rows, "flop": flop, "bytes": nbytes}
    return lambda result: extra


def _candidates_measure(args, kwargs):
    k = kwargs.get("k", args[2] if len(args) > 2 else None)
    asked = args[0].default_k if k is None else int(k)
    return lambda result: {"filled": len(result), "asked": asked}


def trace_patches() -> list:
    from repro.autograd import optim, tensor
    from repro.core import prompt_model, self_training, trainer
    from repro.infer import engine, fastpath
    from repro.privacy import index as clk_index
    from repro.serve import dense, index, pool, server

    engine_cls = engine.InferenceEngine
    return [
        (prompt_model.PromptModel, "encode_pair", "encode", None),
        (prompt_model, "prompt_forward_encoded", "fastpath",
         _fastpath_measure),
        (fastpath, "encoder_hidden", "fastpath.encoder", None),
        (engine_cls, "encodings", "engine", None),
        (engine_cls, "predict_proba", "engine", _engine_measure),
        (engine_cls, "stochastic_proba", "engine", _engine_measure),
        (engine_cls, "mc_dropout_proba", "engine.mc", _engine_measure),
        (server.MatchServer, "process_once", "serve", None),
        (server.MatchServer, "submit", "serve", None),
        (server.MatchServer, "submit_match", "serve", None),
        (pool.ServingPool, "submit", "pool", None),
        (index.ServingIndex, "candidates", "cand.sparse",
         _candidates_measure),
        (dense.DenseCandidateIndex, "candidates", "cand.dense",
         _candidates_measure),
        (clk_index.ClkCandidateIndex, "candidates", "cand.clk",
         _candidates_measure),
        (index.ServingIndex, "add_many", "write.sparse", None),
        (dense.DenseCandidateIndex, "add_many", "write.dense", None),
        (clk_index.ClkCandidateIndex, "add_many", "write.clk", None),
        (trainer.Trainer, "fit", "train", None),
        (trainer, "predict_proba", "lst.eval", None),
        (prompt_model.PromptModel, "loss_encoded", "autograd.forward", None),
        (tensor.Tensor, "backward", "autograd.backward", None),
        (optim.Optimizer, "step", "optim", None),
        (self_training, "select_pseudo_labels", "lst.select", None),
        (self_training, "prune_dataset", "lst.prune", None),
        (self_training, "evaluate_f1", "lst.eval", None),
    ]


def _layer(totals: dict, layer: str, key: str = "wall") -> float:
    """Sum of ``key`` over every span name in ``layer``."""
    return sum(entry.get(key, 0.0) for name, entry in totals.items()
               if name.split(".")[0] == layer)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_layer_metrics(out: Outcome, tracer: Tracer, ops: int,
                       window_cpu_self: float) -> None:
    """Per-layer metrics every workload derives from its spans."""
    totals = tracer.totals()

    def get(name, key="wall"):
        return totals.get(name, {}).get(key, 0.0)

    def calls(name):
        return int(totals.get(name, {}).get("calls", 0))

    encodes = calls("encode")
    out.put("encode.calls_per_op", _ratio(encodes, ops), ops)
    out.put("encode.ms_per_call", 1e3 * _ratio(get("encode", "self_wall"),
                                               encodes), encodes)
    rows = get("fastpath", "rows")
    out.put("fastpath.ms_per_row", 1e3 * _ratio(get("fastpath"), rows),
            int(rows))
    out.put("fastpath.encoder_share",
            _ratio(get("fastpath.encoder"), get("fastpath")),
            calls("fastpath"))
    out.put("fastpath.mflop_per_row",
            _ratio(get("fastpath", "flop"), rows) / 1e6, int(rows))
    out.put("fastpath.mbytes_per_row",
            _ratio(get("fastpath", "bytes"), rows) / 1e6, int(rows))
    batches = _layer(totals, "engine", "batches")
    out.put("engine.rows_per_batch",
            _ratio(_layer(totals, "engine", "rows"), batches), int(batches))
    out.put("engine.padding_frac",
            1.0 - _ratio(_layer(totals, "engine", "tokens_real"),
                         _layer(totals, "engine", "tokens_padded"))
            if batches else 0.0, int(batches))
    out.put("engine.busy_ms_per_op", 1e3 * _ratio(_layer(totals, "engine"),
                                                 ops), ops)
    pairs = _layer(totals, "engine", "pairs")
    out.put("engine.cache_hit_ratio",
            max(1.0 - _ratio(encodes, pairs), 0.0) if pairs else 0.0,
            int(pairs))
    out.put("serve.self_ms_per_op",
            1e3 * _ratio(_layer(totals, "serve", "self_wall"), ops), ops)
    for mode in ("sparse", "dense", "clk"):
        name = f"cand.{mode}"
        out.put(f"{name}_ms", 1e3 * _ratio(get(name), calls(name)),
                calls(name))
        write = f"write.{mode}"
        out.put(f"{write}_ms", 1e3 * _ratio(get(write), calls(write)),
                calls(write))
    out.put("cand.fill_ratio", _ratio(_layer(totals, "cand", "filled"),
                                      _layer(totals, "cand", "asked")),
            int(_layer(totals, "cand", "calls")))
    steps = calls("optim")
    out.put("train.steps_per_op", _ratio(steps, ops), ops)
    out.put("train.ms_per_step", 1e3 * _ratio(
        get("autograd.forward") + get("autograd.backward") + get("optim"),
        steps), steps)
    out.put("autograd.forward_ms",
            1e3 * _ratio(get("autograd.forward"), steps), steps)
    out.put("autograd.backward_ms",
            1e3 * _ratio(get("autograd.backward"), steps), steps)
    out.put("optim.step_ms", 1e3 * _ratio(get("optim"), steps), steps)
    for stage in ("select", "prune", "eval"):
        out.put(f"lst.{stage}_ms", 1e3 * _ratio(get(f"lst.{stage}"), ops),
                ops)
    out.put("lst.mc_rows_per_op", _ratio(get("engine.mc", "rows"), ops), ops)
    # CPU not inside any layer's span: op roots' own time plus whatever
    # ran outside spans, as a share of this process's CPU in traced windows
    attributed = sum(span.self_cpu for span in tracer.spans
                     if span.name != "op")
    out.put("trace.unattributed_frac",
            max(1.0 - _ratio(attributed, window_cpu_self), 0.0),
            len(tracer.spans))


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
class Request:
    __slots__ = ("due", "submitted", "done", "pending", "response", "error")

    def __init__(self, due: float) -> None:
        self.due = due
        self.submitted = 0.0
        self.done = math.nan
        self.pending = None
        self.response = None
        self.error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.response is not None

    @property
    def latency(self) -> float:
        return self.done - self.due


def _sleep_until(deadline: float) -> None:
    delay = deadline - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def _collect(inbox: "queue.SimpleQueue", tracer) -> None:
    """Stamp each request when it is seen resolved. Waits on the oldest
    outstanding request for at most 1 ms, then sweeps all of them, so a
    request a second replica finishes out of order is seen within 1 ms."""
    waiting: List[Request] = []
    closed = False
    closed_at = 0.0
    while waiting or not closed:
        if not waiting:
            item = inbox.get()
            if item is None:
                closed, closed_at = True, time.perf_counter()
                continue
            waiting.append(item)
        while True:
            try:
                item = inbox.get_nowait()
            except queue.Empty:
                break
            if item is None:
                closed, closed_at = True, time.perf_counter()
            else:
                waiting.append(item)
        try:
            waiting[0].pending.result(timeout=0.001)
        except Exception:  # still pending, or failed: the sweep records it
            pass
        now = time.perf_counter()
        with tracer.span("client"):
            still = []
            for request in waiting:
                if not request.pending.done():
                    still.append(request)
                    continue
                request.done = now
                try:
                    request.response = request.pending.result(0)
                except Exception as error:  # the request's own failure
                    request.error = error
            waiting = still
        if closed and waiting and now - closed_at > STALL_S:
            for request in waiting:
                request.error = TimeoutError("unresolved after the run")
            return


class Mark:
    """CPU clocks sampled at a window boundary."""

    __slots__ = ("cpu", "cpu_self")

    def __init__(self) -> None:
        self.cpu = cpu_seconds()
        self.cpu_self = time.process_time()


def open_loop(target, stream: Sequence, profile: Profile, seconds: float,
              tracer, counters: Callable[[], dict]):
    """Fixed-interval arrivals at ``RATE``: a lead-in, then ``seconds``
    of windows. Tracing (when on) covers the even windows only.

    Returns (requests, window bounds, a Mark per bound, the change in
    ``counters()`` from the first bound to the last response)."""
    windows = max(int(round(seconds / profile.window_s)), 1)
    count = int(round((profile.lead_in_s + seconds) * RATE))
    inbox: "queue.SimpleQueue" = queue.SimpleQueue()
    collector = threading.Thread(target=_collect, args=(inbox, tracer),
                                 name="e2e-collector", daemon=True)
    collector.start()
    t0 = time.perf_counter() + 0.01
    bounds = [t0 + profile.lead_in_s + k * profile.window_s
              for k in range(windows + 1)]
    marks: List[Mark] = []
    requests: List[Request] = []
    first: dict = {}

    def cross(k: int) -> None:
        _sleep_until(bounds[k])
        tracer.uninstall()
        marks.append(Mark())
        if k == 0:
            first.update(counters())
        if k < windows and k % 2 == 0:
            tracer.install()

    k = 0
    for i in range(count):
        due = t0 + i / RATE
        while k <= windows and due >= bounds[k]:
            cross(k)
            k += 1
        _sleep_until(due)
        request = Request(due)
        request.submitted = time.perf_counter()
        try:
            request.pending = target.submit(stream[i])
        except Exception as error:  # shed (Overloaded) or refused
            request.error = error
        else:
            inbox.put(request)
        requests.append(request)
    while k <= windows:
        cross(k)
        k += 1
    inbox.put(None)
    collector.join(STALL_S + 30.0)
    last = counters()
    delta = {key: last[key] - first[key] for key in first}
    return requests, bounds, marks, delta


def open_loop_metrics(out: Outcome, requests: List[Request],
                      bounds: Sequence[float], marks: List[Mark],
                      tracer) -> List[Request]:
    """End-to-end metrics of an open-loop run; returns the measured
    requests."""
    windows = len(bounds) - 1
    by_window: List[List[Request]] = [[] for _ in range(windows)]
    for request in requests:
        k = bisect.bisect_right(bounds, request.due) - 1
        if 0 <= k < windows:  # the lead-in is not measured
            by_window[k].append(request)
    out.ops = len(requests)
    out.ops_failed = sum(1 for r in requests if not r.ok)
    p50, cpu = [], []
    for k, chunk in enumerate(by_window):
        p50.append(1e3 * percentile([r.latency for r in chunk if r.ok], 50))
        cpu.append(1e3 * _ratio(marks[k + 1].cpu - marks[k].cpu,
                                len(chunk)))
    measured = [r for chunk in by_window for r in chunk]
    out.put_windows("p50_ms", p50, len(measured), LOW_QUANTILE)
    out.put_windows("cpu_ms_per_op", cpu, len(measured), CPU_QUANTILE)
    ok = [r for r in measured if r.ok]
    out.put("client.p99_ms", 1e3 * percentile([r.latency for r in ok], 99),
            len(ok))
    out.put("client.gen_late_p99_ms", 1e3 * percentile(
        [r.submitted - r.due for r in measured], 99), len(measured))
    if isinstance(tracer, Tracer):
        _overhead(out, cpu, [k % 2 == 0 for k in range(windows)])
        traced = range(0, windows, 2)
        span_layer_metrics(
            out, tracer, sum(len(by_window[k]) for k in traced),
            sum(marks[k + 1].cpu_self - marks[k].cpu_self for k in traced))
    return measured


def _overhead(out: Outcome, cpu_per_window: Sequence[float],
              traced: Sequence[bool]) -> None:
    """Tracing overhead: CPU per operation in traced windows over
    untraced ones, minus one."""
    on = across_windows((v for v, t in zip(cpu_per_window, traced) if t),
                        CPU_QUANTILE)
    off = across_windows((v for v, t in zip(cpu_per_window, traced)
                          if not t), CPU_QUANTILE)
    out.put("trace.overhead_frac", _ratio(on - off, off), len(traced))


def serve_response_metrics(out: Outcome, responses: Sequence) -> None:
    """Queue, service and batch numbers every ScoreResponse carries."""
    queue_ms = [1e3 * r.queue_seconds for r in responses]
    out.put("serve.queue_wait_p50_ms", percentile(queue_ms, 50),
            len(queue_ms))
    out.put("serve.queue_wait_p99_ms", percentile(queue_ms, 99),
            len(queue_ms))
    out.put("serve.service_p50_ms", percentile(
        [1e3 * r.service_seconds for r in responses], 50), len(responses))
    batches = {(r.replica, r.batch_id): r.batch_size for r in responses}
    out.put("serve.batch_rows", float(np.mean(list(batches.values())))
            if batches else 0.0, len(batches))


def replay_check(out: Outcome, measured: List[Request], batch_log: dict,
                 bundle, server_config, seed: int) -> None:
    """Re-score a seeded sample of logged micro-batches offline; every
    served probability must be bit-identical."""
    from repro.infer import EngineConfig, InferenceEngine

    rows: Dict[tuple, list] = {}
    for request in measured:
        if request.ok:
            response = request.response
            rows.setdefault((response.replica or 0, response.batch_id),
                            []).append(response)
    complete = [(replica, entry) for replica, entries in batch_log.items()
                for entry in entries
                if len(rows.get((replica, entry["batch_id"]), ()))
                == len(entry["pairs"])]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(complete), size=min(REPLAY_BATCHES, len(complete)),
                       replace=False) if complete else []
    engine = InferenceEngine(EngineConfig(
        token_budget=server_config.token_budget,
        max_batch_pairs=server_config.max_batch_pairs,
        cache_capacity=server_config.cache_capacity))
    for pick in picks:
        replica, entry = complete[int(pick)]
        replayed = engine.predict_proba(bundle.model, entry["pairs"])
        served = np.stack([r.probs for r in rows[(replica,
                                                  entry["batch_id"])]])
        out.check(np.array_equal(served, replayed),
                  f"replica {replica} batch {entry['batch_id']} replay")
    out.check(len(picks) > 0, "no complete micro-batch to replay")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class ScoreOpen:
    """score-open: one threaded MatchServer (default config, batches
    logged) under fixed-interval arrivals."""

    name = "score-open"

    def __init__(self, seed: int, profile: Profile, seconds: float) -> None:
        self.seed, self.profile, self.seconds = seed, profile, seconds

    def _stream(self):
        count = int(round((self.profile.lead_in_s + self.seconds) * RATE))
        return score_stream(self.seed, self.profile.pair_entities, count)

    def setup(self):
        from repro.serve import MatchServer, ServerConfig

        stream = self._stream()
        _, _, bundle = load_bundle()
        server = MatchServer(bundle, ServerConfig(record_batches=True))
        server.start()
        _warm(server, stream)
        return {"stream": stream, "bundle": bundle, "target": server}

    def teardown(self, state) -> None:
        state["target"].stop()

    def counters(self, state) -> dict:
        stats = state["target"].stats()
        return {"shed": stats["shed"], "errors": stats["errors"]}

    def run(self, state, tracer, out: Outcome) -> None:
        requests, bounds, marks, delta = open_loop(
            state["target"], state["stream"], self.profile, self.seconds,
            tracer, lambda: self.counters(state))
        measured = open_loop_metrics(out, requests, bounds, marks, tracer)
        serve_response_metrics(out, [r.response for r in measured if r.ok])
        self.counter_metrics(out, measured, delta, isinstance(tracer, Tracer))
        batch_log = self.stop(state)
        replay_check(out, measured, batch_log, state["bundle"],
                     self.server_config(state), self.seed)

    def counter_metrics(self, out: Outcome, measured: List[Request],
                        delta: dict, traced: bool) -> None:
        out.put("serve.shed", delta["shed"], len(measured))
        out.put("serve.errors", delta["errors"], len(measured))

    def stop(self, state) -> dict:
        """Stop serving; returns the logged micro-batches per replica."""
        state["target"].stop()
        return {0: state["target"].batch_log}

    def server_config(self, state):
        return state["target"].config


class PoolOpen(ScoreOpen):
    """pool-open: the same stream through ServingPool(replicas=2,
    shards=2) -- the only workload that crosses router/replica pipes."""

    name = "pool-open"

    def setup(self):
        from repro.serve import ServerConfig
        from repro.serve.pool import PoolConfig, ServingPool

        stream = self._stream()
        _, _, bundle = load_bundle()
        pool = ServingPool(bundle, PoolConfig(
            replicas=2, shards=2, server=ServerConfig(record_batches=True)))
        pool.start()
        _warm(pool, stream)
        return {"stream": stream, "bundle": bundle, "target": pool}

    def counters(self, state) -> dict:
        stats = state["target"].stats()
        # forked replicas report under replica_stats; the serial fallback
        # (no fork or shared memory) under server
        servers = list(stats.get("replica_stats", {}).values()) \
            or [stats["server"]]
        counters = {key: sum(s["engine"][key] for s in servers)
                    for key in ("pairs", "rows", "batches", "elapsed",
                                "cache_entries")}
        counters["errors"] = sum(s["errors"] for s in servers)
        for key in ("shed", "redispatched", "deaths"):
            counters[key] = stats[key]
        return counters

    def counter_metrics(self, out: Outcome, measured: List[Request],
                        delta: dict, traced: bool) -> None:
        super().counter_metrics(out, measured, delta, traced)
        ok = [r for r in measured if r.ok]
        # end to end minus generator lateness minus replica queue+service
        router = [1e3 * (r.done - r.submitted - r.response.queue_seconds
                         - r.response.service_seconds) for r in ok]
        out.put("pool.router_p50_ms", percentile(router, 50), len(router))
        out.put("pool.router_p99_ms", percentile(router, 99), len(router))
        counts = list(Counter(r.response.replica for r in ok).values())
        out.put("pool.replica_imbalance",
                max(counts) / np.mean(counts) - 1.0 if counts else 0.0,
                len(counts))
        for key in ("redispatched", "deaths"):
            out.put(f"pool.{key}", delta[key], len(measured))
        if not traced:
            return
        # replica processes are forked, so their spans stay there: the
        # engine numbers come from the counters each replica reports
        ops = len(measured)
        encodes = delta["cache_entries"]  # no evictions at this size
        out.put("encode.calls_per_op", _ratio(encodes, ops), ops)
        out.put("engine.cache_hit_ratio",
                max(1.0 - _ratio(encodes, delta["pairs"]), 0.0),
                int(delta["pairs"]))
        out.put("engine.rows_per_batch",
                _ratio(delta["rows"], delta["batches"]),
                int(delta["batches"]))
        out.put("engine.busy_ms_per_op", 1e3 * _ratio(delta["elapsed"], ops),
                ops)

    def stop(self, state) -> dict:
        # the batch logs live in the replicas: fetch them before stopping
        logs = state["target"].batch_logs()
        state["target"].stop()
        return logs

    def server_config(self, state):
        return state["target"].config.server


def _warm(target, stream) -> None:
    """Score a few pairs the stream does not start with, so lazy paths
    (first forward, thread start) run before timing."""
    for pending in [target.submit(pair) for pair in stream[-32:]]:
        pending.result(30.0)


class MatchChurn:
    """match-churn: one closed-loop client against a SEMI-REL-shaped
    catalog held in the sparse, dense (IVF) and CLK indexes; 90% match
    queries on fresh records cycling the candidate mode per query, 10%
    catalog re-adds of existing ids with a mutated value."""

    name = "match-churn"
    modes = ("sparse", "dense", "clk")

    def __init__(self, seed: int, profile: Profile, seconds: float) -> None:
        self.seed, self.profile, self.seconds = seed, profile, seconds

    def setup(self):
        from repro.ann import RecordEncoder
        from repro.data.generators.base import GeneratorConfig
        from repro.data.generators.movies import SemiRelGenerator
        from repro.privacy import ClkCandidateIndex, ClkEncoder
        from repro.serve import MatchServer, ServerConfig
        from repro.serve.dense import DenseCandidateIndex

        entities = self.profile.catalog_entities
        dataset = SemiRelGenerator(GeneratorConfig(
            num_entities=entities, extra_right_rows=entities // 4)).build(
                seed=self.seed)
        catalog = {r.record_id: r for r in dataset.right_table.records}
        queries = list(dataset.left_table.records)
        np.random.default_rng(self.seed).shuffle(queries)
        lm, tokenizer, bundle = load_bundle()
        encoder = RecordEncoder(lm=lm, tokenizer=tokenizer)
        dense_index = DenseCandidateIndex(encoder, kind="ivf", seed=self.seed)
        clk_index = ClkCandidateIndex(encoder=ClkEncoder(f"e2e-{self.seed}"))
        server = MatchServer(bundle, ServerConfig(), dense_index=dense_index,
                             clk_index=clk_index)
        server.catalog_add(catalog.values())
        dense_index.train()
        server.start()
        for mode, query in zip(self.modes, queries[-3:]):
            server.set_candidate_mode(mode)
            server.match(query, k=5, timeout=30.0)
        return {"server": server, "bundle": bundle, "catalog": catalog,
                "queries": queries, "encoder": encoder}

    def teardown(self, state) -> None:
        state["server"].stop()

    def run(self, state, tracer, out: Outcome) -> None:
        server, catalog = state["server"], state["catalog"]
        queries = state["queries"]
        rng = np.random.default_rng(self.seed + 1)
        ids = sorted(catalog)
        window_s = self.profile.window_s
        windows = max(int(round(self.seconds / window_s)), 1)
        ops: List[dict] = []
        marks: List[Mark] = []
        start = time.perf_counter()
        query_at = match_count = 0
        for k in range(windows):
            tracer.uninstall()
            marks.append(Mark())
            if k % 2 == 0:
                tracer.install()
            end = start + (k + 1) * window_s
            while time.perf_counter() < end:
                op = {"window": k}
                if rng.random() < 0.1:
                    record_id = ids[int(rng.integers(len(ids)))]
                    record = mutated(catalog[record_id], len(ops))
                    with tracer.span("op", req=len(ops)):
                        began = time.perf_counter()
                        server.catalog_add([record])
                        op["write_ms"] = 1e3 * (time.perf_counter() - began)
                    catalog[record_id] = record
                else:
                    mode = self.modes[match_count % 3]
                    match_count += 1
                    query = queries[query_at % len(queries)]
                    query_at += 1
                    server.set_candidate_mode(mode)
                    with tracer.span("op", req=len(ops)):
                        began = time.perf_counter()
                        pending = server.submit_match(query, k=5)
                        admitted = time.perf_counter()
                        try:
                            response = pending.result(timeout=STALL_S)
                        except Exception as error:  # failed or stalled
                            op["error"] = repr(error)
                            response = None
                        finished = time.perf_counter()
                    op.update(mode=mode, ms=1e3 * (finished - began),
                              score_ms=1e3 * (finished - admitted))
                    if response is not None:
                        op["responses"] = [c.response
                                           for c in response.candidates]
                ops.append(op)
        tracer.uninstall()
        marks.append(Mark())
        self._metrics(out, ops, marks, windows, tracer)
        self._check(state, out)

    def _metrics(self, out: Outcome, ops: List[dict], marks: List[Mark],
                 windows: int, tracer) -> None:
        out.ops = len(ops)
        out.ops_failed = sum(1 for op in ops if "error" in op)
        matches = [op for op in ops if "mode" in op and "error" not in op]
        p50, cpu = [], []
        for k in range(windows):
            chunk = [op for op in matches if op["window"] == k]
            per_mode = [[op["ms"] for op in chunk if op["mode"] == mode]
                        for mode in self.modes]
            # each mode weighs the same, so a change to one candidate
            # generator moves the metric whatever the others cost
            p50.append(float(np.mean([percentile(v, 50) for v in per_mode])))
            in_window = sum(1 for op in ops if op["window"] == k)
            cpu.append(1e3 * _ratio(marks[k + 1].cpu - marks[k].cpu,
                                    in_window))
        out.put_windows("p50_ms", p50, len(matches), LOW_QUANTILE)
        out.put_windows("cpu_ms_per_op", cpu, len(ops), CPU_QUANTILE)
        out.put("client.p99_ms", percentile([op["ms"] for op in matches], 99),
                len(matches))
        out.put("client.gen_late_p99_ms", 0.0, 0)
        for mode in self.modes:
            values = [op["ms"] for op in matches if op["mode"] == mode]
            out.put(f"match.{mode}_p50_ms", percentile(values, 50),
                    len(values))
        out.put("match.score_ms", percentile(
            [op["score_ms"] for op in matches], 50), len(matches))
        writes = [op["write_ms"] for op in ops if "write_ms" in op]
        out.put("write.p50_ms", percentile(writes, 50), len(writes))
        responses = [r for op in matches for r in op.get("responses", ())]
        serve_response_metrics(out, responses)
        if isinstance(tracer, Tracer):
            _overhead(out, cpu, [k % 2 == 0 for k in range(windows)])
            traced = range(0, windows, 2)
            span_layer_metrics(
                out, tracer, sum(1 for op in ops if op["window"] in traced),
                sum(marks[k + 1].cpu_self - marks[k].cpu_self
                    for k in traced))

    def _check(self, state, out: Outcome) -> None:
        """Writes are paused: candidates must equal freshly built reference
        indexes over the final catalog (sparse, CLK), dense recall@5
        against an exact scan must meet its floor, and served scores must
        equal the offline engine's on the same pairs."""
        from repro.ann import exact_dense_topk
        from repro.data.dataset import CandidatePair
        from repro.infer import EngineConfig, InferenceEngine
        from repro.privacy import ClkCandidateIndex
        from repro.serve import ServingIndex

        server, catalog = state["server"], state["catalog"]
        encoder = state["encoder"]
        ref_sparse = ServingIndex()
        ref_sparse.add_many(catalog.values())
        ref_clk = ClkCandidateIndex(encoder=server.clk_index.encoder)
        ref_clk.add_many(catalog.values())
        ids = sorted(catalog)
        vectors = encoder.encode_records([catalog[i] for i in ids])
        config = server.config
        engine = InferenceEngine(EngineConfig(
            token_budget=config.token_budget,
            max_batch_pairs=config.max_batch_pairs,
            cache_capacity=config.cache_capacity))
        indexes = {"sparse": server.index, "dense": server.dense_index,
                   "clk": server.clk_index}
        rng = np.random.default_rng(self.seed + 2)
        queries = state["queries"]
        picks = rng.choice(len(queries), size=min(CHECK_QUERIES,
                                                  len(queries)),
                           replace=False)
        recalls = []
        for j, pick in enumerate(picks):
            query = queries[int(pick)]
            for name, ref in (("sparse", ref_sparse), ("clk", ref_clk)):
                got = [r.record_id for r, _ in indexes[name].candidates(
                    query, 5)]
                want = [r.record_id for r, _ in ref.candidates(query, 5)]
                out.check(got == want, f"{name} candidates of "
                          f"{query.record_id}")
            exact = exact_dense_topk(encoder.encode_record(query), vectors,
                                     ids, 5)
            got = {r.record_id for r, _ in server.dense_index.candidates(
                query, 5)}
            recalls.append(len(got & set(exact)) / max(len(exact), 1))
            mode = self.modes[j % 3]
            server.set_candidate_mode(mode)
            candidates = indexes[mode].candidates(query, 5)
            offline = engine.predict_proba(
                state["bundle"].model,
                [CandidatePair(query, record) for record, _ in candidates])
            served = {c.record.record_id: c.response.probs for c in
                      server.match(query, k=5, timeout=30.0).candidates}
            out.check(len(served) == len(candidates) and all(
                np.array_equal(served.get(record.record_id), row)
                for (record, _), row in zip(candidates, offline)),
                f"{mode} scores of {query.record_id}")
        recall = float(np.mean(recalls))
        out.check(recall >= DENSE_RECALL_FLOOR,
                  f"dense recall@5 {recall:.3f} < {DENSE_RECALL_FLOOR}")
        out.extra["dense_recall_at_5"] = recall


class FitLst:
    """fit-lst: PromptEM.fit (prompt-tuning + lightweight self-training)
    then evaluate, on a SEMI-HETER-shaped dataset."""

    name = "fit-lst"

    def __init__(self, seed: int, profile: Profile, seconds: float) -> None:
        self.seed, self.profile, self.seconds = seed, profile, seconds

    def setup(self):
        from repro.core import PromptEMConfig
        from repro.data.generators.base import GeneratorConfig
        from repro.data.generators.books import SemiHeterGenerator
        from repro.lm import load_pretrained

        base = SemiHeterGenerator(GeneratorConfig(
            num_entities=80, extra_right_rows=30, sibling_fraction=0.7,
            random_negatives_per_entity=1)).build(seed=self.seed)
        # a short validation split (scored every epoch) keeps a fit short;
        # the full test split keeps its F1 meaningful
        dataset = dataclasses.replace(
            base, valid=base.valid[:self.profile.fit_valid])
        view = dataset.low_resource_count(self.profile.fit_labeled,
                                          seed=self.seed)
        config = PromptEMConfig(model_name=MODEL, **dict(self.profile.fit))
        lm, tokenizer = load_pretrained(MODEL)
        return {"view": view, "config": config, "lm": lm,
                "tokenizer": tokenizer}

    def teardown(self, state) -> None:
        pass

    def run(self, state, tracer, out: Outcome) -> None:
        from repro.core import PromptEM

        fits: List[dict] = []
        lead_in = True
        start = 0.0
        # at least two measured fits (one traced, one not); then start
        # another only while it should end near the measured interval
        while lead_in or len(fits) < 2 or (time.perf_counter() - start
                                           + 0.5 * fits[-1]["ms"] / 1e3
                                           < self.seconds):
            traced = not lead_in and len(fits) % 2 == 0
            if traced:
                tracer.install()
            cpu0, began = time.process_time(), time.perf_counter()
            with tracer.span("op", req=len(fits)):
                matcher = PromptEM(state["config"], lm=state["lm"],
                                   tokenizer=state["tokenizer"])
                matcher.fit(state["view"])
                with tracer.span("lst.eval"):
                    f1 = matcher.evaluate(state["view"].test).f1
            wall = time.perf_counter() - began
            cpu = time.process_time() - cpu0
            tracer.uninstall()
            out.check(f1 >= FIT_F1_FLOOR,
                      f"fit {len(fits)} test F1 {f1:.1f} < {FIT_F1_FLOOR}")
            if lead_in:
                lead_in = False
                start = time.perf_counter()
                continue
            fits.append({"ms": 1e3 * wall, "cpu_ms": 1e3 * cpu, "f1": f1,
                         "traced": traced})
        out.ops = len(fits) + 1
        times = [fit["ms"] for fit in fits]
        # one fit per window, so a window's median is that fit's time
        out.put_windows("p50_ms", times, len(fits), LOW_QUANTILE)
        cpu = [fit["cpu_ms"] for fit in fits]
        out.put_windows("cpu_ms_per_op", cpu, len(fits), LOW_QUANTILE)
        out.put("client.p99_ms", percentile(times, 99), len(fits))
        out.put("client.gen_late_p99_ms", 0.0, 0)
        out.put("lst.test_f1", percentile([fit["f1"] for fit in fits], 50),
                len(fits))
        if isinstance(tracer, Tracer):
            _overhead(out, cpu, [fit["traced"] for fit in fits])
            traced_fits = [f for f in fits if f["traced"]]
            span_layer_metrics(out, tracer, len(traced_fits),
                               sum(f["cpu_ms"] for f in traced_fits) / 1e3)


CLASSES = {cls.name: cls for cls in (ScoreOpen, PoolOpen, MatchChurn, FitLst)}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, build_dir: Path) -> int:
    root = Path(__file__).resolve().parents[2]
    spec = load_spec(root)
    profile = SMOKE if smoke else FULL
    if smoke:
        seconds = min(seconds, 1.0)
    workload = CLASSES[name](seed, profile, seconds)
    tracer = Tracer(trace_patches()) if trace else NullTracer()
    out = Outcome()
    began = time.perf_counter()
    state = workload.setup()
    setup_s = [time.perf_counter() - began]
    try:
        workload.run(state, tracer, out)
    finally:
        tracer.uninstall()
        workload.teardown(state)
    del state
    if trace:
        trace_dir = build_dir / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_dir / f"{name}-seed{seed}.jsonl")
    # the other set-ups run after the measured interval, so the median
    # samples the machine at more than one moment; cheap ones repeat until
    # the set-up budget is spent, so their median rests on more samples
    spent = 0.0
    while len(setup_s) < profile.setups or spent < profile.setup_budget_s:
        began = time.perf_counter()
        extra = workload.setup()
        setup_s.append(time.perf_counter() - began)
        workload.teardown(extra)
        spent += time.perf_counter() - began
    out.put("setup_s", percentile(setup_s, 50), len(setup_s))
    entries = spec["per_layer" if trace else "end_to_end"]
    names = [entry["name"] for entry in entries]
    for entry in entries:
        if trace and entry["name"] not in out.metrics:
            out.put(entry["name"], 0.0, 0)  # a layer this run does not use
        out.metrics[entry["name"]].unit = entry["unit"]
    for line in out.lines(name, names):
        print(line)
    for note in out.notes:
        print(f"# {note}")
    env = environment()
    print("# env " + " ".join(f"{k}={v}" for k, v in sorted(env.items())))
    for key, value in sorted(out.extra.items()):
        print(f"# {key} {value}")
    print("# windows " + json.dumps(out.windows, sort_keys=True))
    print(json.dumps(out.result(names), allow_nan=False))
    return 0


def build() -> int:
    """Pre-train the backbone checkpoint into the build directory (the
    one slow step; later runs load it in milliseconds)."""
    from repro.lm import load_pretrained

    cache = Path(os.environ["REPRO_CACHE_DIR"])
    staging = cache.with_name(f"{cache.name}.tmp-{os.getpid()}")
    load_pretrained(MODEL, cache_dir=staging)
    try:
        staging.rename(cache)
    except OSError:  # another build finished first
        shutil.rmtree(staging, ignore_errors=True)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(CLASSES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--build-dir", type=Path, required=True)
    parser.add_argument("--build", action="store_true",
                        help="only build the model cache")
    args = parser.parse_args(argv)
    if args.build:
        return build()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.smoke, args.build_dir)


if __name__ == "__main__":
    sys.exit(main())
