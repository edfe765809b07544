"""Serving-pool benchmark: replicated workers vs one micro-batched server.

Runs the same request stream through a single-process
:class:`repro.serve.MatchServer` (the PR-5 configuration) and through
:class:`repro.serve.pool.ServingPool` at 1/2/4 replicas, each replica a
forked worker adopting the bundle's weights zero-copy from shared memory
with the candidate catalog hash-sharded across them.

Two numbers matter:

* **throughput scaling** -- ``pool x`` is each replica count against the
  single-process server. Scaling is hardware-bound: forked replicas only
  run concurrently when the host grants multiple cores, so ``pool x``
  approaches the replica count on multicore hosts and honestly hovers
  near (or below -- the router adds pipe hops) 1.0x on a single-core
  container where every process time-slices one CPU. The title and JSON
  record ``cores``;
* **bit-identity** -- the part no hardware can change. Every replica logs
  the exact pair composition of its micro-batches; replaying every logged
  batch through an offline :class:`repro.infer.InferenceEngine` must
  reproduce every served probability bit for bit at every replica/shard
  count (``bit_identical=True``). The pool's responses are also compared
  pair for pair against the single-process server's
  (``matches_single``/``max_abs_vs_single``) -- to float32 reduction
  tolerance rather than bitwise, because the two arms batch the stream
  differently and batch composition changes padding/accumulation shapes
  in the engine. Replication changes wall-clock, never the replay bits.
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np

from _harness import MODEL_NAME, emit  # noqa: E402
from repro.data import load_dataset  # noqa: E402
from repro.eval import bench_scale, render_table  # noqa: E402
from repro.infer import EngineConfig, InferenceEngine  # noqa: E402
from repro.lm import load_pretrained  # noqa: E402
from repro.core import PromptModel, Verbalizer, make_template  # noqa: E402
from repro.serve import MatchServer, ModelBundle, ServerConfig  # noqa: E402
from repro.serve.pool import PoolConfig, ServingPool  # noqa: E402

REPLICA_COUNTS = (1, 2, 4)


def replay_pool_batches(pool, bundle, responses, config):
    """Replay every replica's logged micro-batches offline.

    Pairs cross process pipes, so responses cannot be matched to log
    entries by object identity the way ``bench_serving.py`` does; instead
    responses are grouped by ``(replica, batch_id)`` -- both stamped on
    the response by the worker that scored it -- and each group's sorted
    probability rows must equal the offline engine's rows for the logged
    pair list, bit for bit. Returns ``(bit_identical, replayed_rows)``.
    """
    engine = InferenceEngine(EngineConfig(
        token_budget=config.token_budget,
        max_batch_pairs=config.max_batch_pairs,
        cache_capacity=config.cache_capacity))
    by_batch = {}
    for response in responses:
        # the serial fallback stamps replica None but logs under key 0
        replica = response.replica if response.replica is not None else 0
        by_batch.setdefault((replica, response.batch_id),
                            []).append(response)

    rows = 0
    for replica, entries in pool.batch_logs().items():
        for entry in entries:
            batch_responses = by_batch.get((replica, entry["batch_id"]))
            if batch_responses is None:
                continue
            if len(batch_responses) != len(entry["pairs"]):
                return False, rows
            replayed = engine.predict_proba(bundle.model, entry["pairs"])
            got = np.stack(sorted((r.probs for r in batch_responses),
                                  key=lambda p: tuple(p)))
            want = np.stack(sorted(replayed, key=lambda p: tuple(p)))
            if not np.array_equal(got, want):
                return False, rows
            rows += len(batch_responses)
    return rows == len(responses), rows


def run_pool_comparison(bundle, pairs, replica_counts=REPLICA_COUNTS,
                        shards=None, iterations=2, max_batch_pairs=16,
                        token_budget=4096):
    """Time single-process serving vs the pool at each replica count.

    Every arm scores the same ``iterations`` sweeps after one untimed
    warmup sweep (steady-state: warm encoding caches, replicas forked and
    idle). Identity checks run on the final sweep's responses.
    """
    pairs = list(pairs)
    scored = iterations * len(pairs)

    def server_config():
        return ServerConfig(
            max_batch_pairs=max_batch_pairs, token_budget=token_budget,
            max_queue=max(1024, 4 * len(pairs)), record_batches=True)

    single = MatchServer(bundle, server_config())
    single.score_batch(pairs)
    started = time.perf_counter()
    for _ in range(iterations - 1):
        single.score_batch(pairs)
    single_responses = single.score_batch(pairs)
    single_elapsed = time.perf_counter() - started
    single_pps = scored / single_elapsed if single_elapsed else 0.0
    single_probs = np.stack([r.probs for r in single_responses])

    arms = {}
    mode = None
    for replicas in replica_counts:
        config = server_config()
        # size the per-replica window to the stream so the timed sweeps
        # measure scoring, not the Overloaded retry loop of score_batch
        pool = ServingPool(bundle, PoolConfig(
            replicas=replicas, shards=shards or replicas, server=config,
            max_outstanding=max(64, len(pairs))))
        with pool:
            mode = pool.stats()["mode"]
            pool.score_batch(pairs, timeout=120.0)
            responses = []
            started = time.perf_counter()
            for _ in range(iterations):
                responses.extend(pool.score_batch(pairs, timeout=120.0))
            elapsed = time.perf_counter() - started

            bit_identical, replayed_rows = replay_pool_batches(
                pool, bundle, responses, config)
            final = responses[-len(pairs):]
            final_probs = np.stack([r.probs for r in final])
            max_abs_vs_single = float(
                np.max(np.abs(final_probs - single_probs)))
            matches_single = bool(np.allclose(
                final_probs, single_probs, rtol=1e-5, atol=1e-7))
            stats = pool.stats()
            replicas_used = sorted({r.replica for r in final
                                    if r.replica is not None})
        pps = scored / elapsed if elapsed else 0.0
        arms[replicas] = {
            "pairs_per_sec": pps,
            "elapsed": elapsed,
            "speedup_vs_single": pps / single_pps if single_pps else 0.0,
            "bit_identical": bit_identical,
            "replayed_rows": replayed_rows,
            "matches_single": matches_single,
            "max_abs_vs_single": max_abs_vs_single,
            "replicas_used": replicas_used,
            "shed": stats["shed"],
            "redispatched": stats["redispatched"],
            "deaths": stats["deaths"],
        }

    return {
        "pairs": len(pairs),
        "iterations": iterations,
        "mode": mode,
        "single_pps": single_pps,
        "arms": arms,
    }


def run_pool_bench():
    scale = bench_scale()
    lm, tok = load_pretrained(MODEL_NAME)
    template = make_template("t2", tok, max_len=96)
    model = PromptModel(lm, tok, template, Verbalizer.designed(tok.vocab))
    model.eval()
    bundle = ModelBundle.from_model(model, threshold=0.5, name=MODEL_NAME)

    cores = os.cpu_count() or 1
    rows = []
    results = {"cores_detected": cores,
               "replica_counts": list(REPLICA_COUNTS), "datasets": {}}
    for dataset_name in scale.datasets:
        dataset = load_dataset(dataset_name)
        pool = (dataset.train + dataset.test)[:4 * scale.unlabeled_cap]
        result = run_pool_comparison(bundle, pool)
        results["datasets"][dataset_name] = result
        for replicas in REPLICA_COUNTS:
            arm = result["arms"][replicas]
            rows.append([
                dataset_name,
                result["pairs"],
                replicas,
                f"{arm['pairs_per_sec']:.1f}",
                f"{arm['speedup_vs_single']:.2f}x",
                str(arm["bit_identical"]),
                str(arm["matches_single"]),
                arm["shed"],
            ])

    headers = ["Dataset", "Pairs", "Replicas", "Pairs/s", "Pool x",
               "Bit-identical", "= single", "Shed"]
    table = render_table(
        headers, rows,
        title=f"Serving pool: replicas vs single process (scale={scale.name},"
              f" cores={cores}; pool scaling is core-bound, "
              "bit-identity is not)")
    return table, results


def test_serving_pool(benchmark):
    table, data = benchmark.pedantic(run_pool_bench, rounds=1, iterations=1)
    emit(table, "serving_pool", data=data)
