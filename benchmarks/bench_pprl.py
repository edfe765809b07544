"""PPRL benchmark: popcount Dice kernel, privacy/F1 trade-off, encode rate.

Three arms, one ``BENCH_pprl.json``:

* **kernel** -- one packed query filter scored against a large synthetic
  catalog.  The vectorized arm is the serving hot path
  (:func:`repro.privacy.dice_topk`: SWAR popcount, blocked AND into a
  recycled scratch buffer, streaming top-k pool); the naive arm is the
  per-pair pure-Python loop (:func:`naive_dice_scores`, ``bin().count``
  per word), timed on a row subsample and extrapolated to the full
  catalog.  The top-k ids of both arms must agree exactly (the kernels
  are a full scan -- any disagreement is a bit-level bug, not an
  approximation), and the speedup must clear 10x.

* **trade-off** -- what CLK encoding costs in match quality, measured on
  the same benchmark generators the plaintext pipeline uses.  For each
  dataset, every labeled pair is scored two ways: plaintext q-gram Dice
  (the same tokens/q-grams the encoder hashes, compared in the clear)
  and CLK Dice over packed filters at several encoding configs
  (1024/2048 bits, balance/fold hardening).  Both arms sweep the score
  threshold and report their best F1, so the delta isolates the Bloom
  collision + hardening loss.  ``PrivateBlocker`` recall against the
  true matches completes the picture (can a filters-only blocker still
  find the real pairs), with ``measure_recall`` doubling as the kernel
  exactness canary.

* **encode** -- catalog ingestion in absolute records/s: the 1,949-record
  SEMI-REL-shaped catalog of the end-to-end ``match-churn`` workload
  encoded by :meth:`ClkEncoder.encode_records` (the array kernel, from a
  fresh encoder and again with its memos warm) and by the per-gram oracle
  path the kernel replaced (:func:`oracle_encode`: each gram's
  ``gram_bits`` set one gram at a time, record by record).  Both must
  produce identical filters in every hardening mode, and the kernel must
  clear 5,000 records/s from cold.

The headline of this bench is the *trade-off table*, not a single
scalar: ``data["headline"]`` carries a one-line summary string and
``scripts/bench_report.py`` renders it in place of a speedup number
(the kernel speedup is still recorded under ``data["kernel_speedup"]``
for the regression guard).
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np

from _harness import emit  # noqa: E402
from repro.data import load_dataset  # noqa: E402
from repro.data.blocking import record_tokens  # noqa: E402
from repro.data.generators.base import GeneratorConfig  # noqa: E402
from repro.data.generators.movies import SemiRelGenerator  # noqa: E402
from repro.eval import bench_scale, render_table  # noqa: E402
from repro.privacy import (  # noqa: E402
    ClkConfig, ClkEncoder, PrivateBlocker, dice_topk, naive_dice_scores,
    popcount,
)

#: encoding configs of the trade-off arm: (label, config)
CLK_CONFIGS = [
    ("clk 2048/none", ClkConfig(nbits=2048)),
    ("clk 1024/none", ClkConfig(nbits=1024)),
    ("clk 1024/balance", ClkConfig(nbits=1024, hardening="balance")),
    ("clk 1024/fold", ClkConfig(nbits=1024, hardening="fold")),
]

#: the shared secret both parties would hold; fixed so runs are repeatable
_BENCH_SALT = "bench-pprl-shared-salt"


# ----------------------------------------------------------------------
# Kernel arm
# ----------------------------------------------------------------------
def synthetic_filters(n, words, rng):
    """Random packed filters at ~50% fill -- the density a well-sized CLK
    converges to, i.e. the worst case for popcount work per word."""
    return rng.integers(0, 2 ** 64, size=(n, words), dtype=np.uint64)


def run_kernel_arm(n, n_queries, words=16, k=10, naive_rows=1500, seed=0):
    rng = np.random.default_rng(seed)
    filters = synthetic_filters(n, words, rng)
    queries = synthetic_filters(n_queries, words, rng)
    pops = popcount(filters)

    naive_rows = min(naive_rows, n)
    sub = np.arange(naive_rows)

    # top-k agreement on the subsample: both arms rank by (-score, row)
    agree = total = 0
    for q in range(n_queries):
        pool_rows, pool_scores = dice_topk(queries[q], filters, k,
                                           pops=pops, rows=sub)
        kernel_ids = [row for _, row in sorted(
            zip(-pool_scores, pool_rows.tolist()))][:k]
        naive = naive_dice_scores(queries[q], filters[sub])
        exact_ids = [row for _, row in sorted(
            (-score, row) for row, score in enumerate(naive))][:k]
        agree += len(set(kernel_ids) & set(exact_ids))
        total += k

    # timing: kernel over the full catalog, naive extrapolated from the
    # subsample (a full pure-Python pass would dominate the bench run)
    dice_topk(queries[0], filters, k, pops=pops)  # warm scratch buffers
    started = time.perf_counter()
    for q in range(n_queries):
        dice_topk(queries[q], filters, k, pops=pops)
    kernel_s = (time.perf_counter() - started) / n_queries

    started = time.perf_counter()
    for q in range(n_queries):
        naive_dice_scores(queries[q], filters[sub])
    naive_sub_s = (time.perf_counter() - started) / n_queries
    naive_s = naive_sub_s * (n / naive_rows)

    return {
        "n": n, "queries": n_queries, "words": words, "k": k,
        "naive_rows_timed": naive_rows,
        "kernel_query_ms": 1000 * kernel_s,
        "naive_query_ms_extrapolated": 1000 * naive_s,
        "speedup": naive_s / kernel_s if kernel_s else 0.0,
        "topk_agreement": agree / total if total else 1.0,
    }


# ----------------------------------------------------------------------
# Trade-off arm
# ----------------------------------------------------------------------
def best_f1(scores, labels):
    """Best F1 over a sweep of the observed score thresholds.

    Identical procedure for the plaintext and CLK arms, so the reported
    delta is the encoding's doing, not the calibration's.
    """
    order = np.argsort(scores)[::-1]
    labels = np.asarray(labels)[order]
    positives = int(labels.sum())
    if positives == 0:
        return 0.0, 0.0
    tp = np.cumsum(labels)
    predicted = np.arange(1, len(labels) + 1)
    precision = tp / predicted
    recall = tp / positives
    f1 = np.divide(2 * precision * recall, precision + recall,
                   out=np.zeros_like(precision),
                   where=(precision + recall) > 0)
    best = int(np.argmax(f1))
    return float(f1[best]), float(np.asarray(scores)[order][best])


def plaintext_dice(encoder, left, right, cache):
    """Q-gram Dice in the clear -- same grams the encoder hashes."""
    a = cache.setdefault(left.record_id, encoder.qgrams(left))
    b = cache.setdefault(right.record_id, encoder.qgrams(right))
    if not a and not b:
        return 0.0
    a, b = set(a), set(b)
    return 2.0 * len(a & b) / (len(a) + len(b))


def run_tradeoff_arm(dataset_name, k=10):
    dataset = load_dataset(dataset_name)
    pairs = dataset.train + dataset.valid + dataset.test
    labels = [pair.label for pair in pairs]
    true_matches = {(pair.left.record_id, pair.right.record_id)
                    for pair in pairs if pair.label == 1}

    rows = []
    # plaintext arm: one encoder just for its q-gram normalization
    base = ClkEncoder(_BENCH_SALT, CLK_CONFIGS[1][1])
    gram_cache = {}
    scores = [plaintext_dice(base, pair.left, pair.right, gram_cache)
              for pair in pairs]
    plain_f1, plain_threshold = best_f1(scores, labels)
    rows.append({"config": "plaintext q-gram dice", "f1": plain_f1,
                 "threshold": plain_threshold, "f1_cost": 0.0,
                 "blocker_recall": None, "kernel_recall": None})

    for label, config in CLK_CONFIGS:
        encoder = ClkEncoder(_BENCH_SALT, config)
        clk_cache = {}
        scores = []
        for pair in pairs:
            a = clk_cache.setdefault(pair.left.record_id,
                                     encoder.encode_record(pair.left))
            b = clk_cache.setdefault(pair.right.record_id,
                                     encoder.encode_record(pair.right))
            inter = int(popcount(a & b))
            denom = int(popcount(a)) + int(popcount(b))
            scores.append(2.0 * inter / denom if denom else 0.0)
        f1, threshold = best_f1(scores, labels)

        blocker = PrivateBlocker(encoder, k=k)
        result = blocker.block(dataset.left_table, dataset.right_table,
                               measure_recall=True)
        found = {(left.record_id, right.record_id)
                 for left, right in result.candidates}
        recall = (len(found & true_matches) / len(true_matches)
                  if true_matches else 1.0)
        rows.append({"config": label, "f1": f1, "threshold": threshold,
                     "f1_cost": plain_f1 - f1, "blocker_recall": recall,
                     "kernel_recall": result.recall_at_k})
    return {"dataset": dataset_name, "pairs": len(pairs),
            "true_matches": len(true_matches), "k": k, "rows": rows}


# ----------------------------------------------------------------------
# Encode arm
# ----------------------------------------------------------------------
#: the encode arm's floor for the kernel from cold, records/s: more than 2x
#: below the kernel's slowest cold run on a 2-vCPU host (12.2k) and above
#: the 0.8-2.0k of the per-gram path it replaced there
ENCODE_FLOOR_RECORDS_PER_S = 5000.0


def churn_catalog(entities=1100, seed=1):
    """The catalog the end-to-end ``match-churn`` workload ingests
    (1,949 records at the default size)."""
    dataset = SemiRelGenerator(GeneratorConfig(
        num_entities=entities, extra_right_rows=entities // 4)).build(
            seed=seed)
    return list(dataset.right_table.records)


def oracle_encode(encoder, records):
    """The per-gram encoding the kernel replaced: every gram's oracle
    positions set one gram at a time, then hardened and packed, one record
    at a time.  The tests check the kernel against this one copy."""
    out = np.empty((len(records), encoder.config.words), dtype=np.uint64)
    for i, record in enumerate(records):
        bits = np.zeros(encoder.config.nbits, dtype=bool)
        for gram in encoder.qgrams(record):
            bits[encoder.gram_bits(gram)] = True
        out[i] = encoder._harden_and_pack(bits)
    return out


def _records_per_s(encode, records):
    started = time.perf_counter()
    filters = encode(records)
    return filters, len(records) / (time.perf_counter() - started)


def run_encode_arm(records, nbits=1024):
    """Records/s of the kernel (cold and warm memos) and of the per-gram
    oracle, one row per hardening mode, each from a fresh encoder.  Token
    sets are computed before timing, so no arm pays for tokenizing."""
    for record in records:
        record_tokens(record)
    rows = []
    for hardening in ("none", "balance", "fold"):
        config = ClkConfig(nbits=nbits, hardening=hardening)
        kernel = ClkEncoder(_BENCH_SALT, config)
        filters, cold = _records_per_s(kernel.encode_records, records)
        again, warm = _records_per_s(kernel.encode_records, records)
        oracle = ClkEncoder(_BENCH_SALT, config)
        expected, slow = _records_per_s(
            lambda rs: oracle_encode(oracle, rs), records)
        rows.append({
            "hardening": hardening, "nbits": nbits, "records": len(records),
            "kernel_cold_records_per_s": cold,
            "kernel_warm_records_per_s": warm,
            "oracle_records_per_s": slow,
            "identical": bool(np.array_equal(filters, expected)
                              and np.array_equal(again, expected)),
        })
    return rows


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_pprl_bench(seed=0):
    scale = bench_scale()
    if scale.name == "smoke":
        n, n_queries, naive_rows = 20_000, 10, 1000
    else:
        n, n_queries, naive_rows = 200_000, 40, 2000

    kernel = run_kernel_arm(n, n_queries, naive_rows=naive_rows, seed=seed)
    encode = run_encode_arm(churn_catalog())
    tradeoffs = [run_tradeoff_arm(name) for name in scale.datasets]

    table_rows = []
    for tradeoff in tradeoffs:
        for row in tradeoff["rows"]:
            table_rows.append([
                tradeoff["dataset"], row["config"], f"{row['f1']:.4f}",
                f"{row['f1_cost']:+.4f}",
                ("-" if row["blocker_recall"] is None
                 else f"{row['blocker_recall']:.4f}"),
                ("-" if row["kernel_recall"] is None
                 else f"{row['kernel_recall']:.4f}"),
            ])
    table = render_table(
        ["Dataset", "Scoring", "Best F1", "F1 cost", "Recall@k", "Kernel"],
        table_rows,
        title=(f"Privacy/F1 trade-off: CLK Dice vs plaintext q-gram Dice "
               f"(k={tradeoffs[0]['k']}, scale={scale.name})"))
    table += (
        f"\nkernel: packed dice_topk {kernel['kernel_query_ms']:.3f} ms/query"
        f" vs naive per-pair loop "
        f"{kernel['naive_query_ms_extrapolated']:.1f} ms/query"
        f" (n={kernel['n']}, extrapolated from "
        f"{kernel['naive_rows_timed']} rows) -> "
        f"{kernel['speedup']:.1f}x, top-{kernel['k']} agreement "
        f"{kernel['topk_agreement']:.4f}")
    for row in encode:
        table += (
            f"\nencode {row['nbits']}/{row['hardening']}: kernel "
            f"{row['kernel_cold_records_per_s']:.0f} records/s cold, "
            f"{row['kernel_warm_records_per_s']:.0f} warm; per-gram oracle "
            f"{row['oracle_records_per_s']:.0f} records/s "
            f"(n={row['records']}, filters "
            f"{'identical' if row['identical'] else 'DIFFER'})")

    worst = max((row["f1_cost"] for t in tradeoffs for row in t["rows"]
                 if row["blocker_recall"] is not None), default=0.0)
    headline = (f"kernel {kernel['speedup']:.0f}x vs naive loop; "
                f"CLK F1 cost <= {worst:.3f} vs plaintext across "
                f"{len(tradeoffs)} datasets x {len(CLK_CONFIGS)} configs")
    data = {
        "kernel": kernel,
        "kernel_speedup": kernel["speedup"],
        "kernel_topk_agreement": kernel["topk_agreement"],
        "encode": encode,
        "tradeoff": tradeoffs,
        "worst_f1_cost": worst,
        "headline": headline,
    }
    return table, data


def test_pprl(benchmark):
    table, data = benchmark.pedantic(run_pprl_bench, rounds=1, iterations=1)
    emit(table, "pprl", data=data)
    assert data["kernel_speedup"] >= 10.0
    assert data["kernel_topk_agreement"] == 1.0
    for row in data["encode"]:
        assert row["identical"]
        assert row["kernel_cold_records_per_s"] >= ENCODE_FLOOR_RECORDS_PER_S
    for tradeoff in data["tradeoff"]:
        for row in tradeoff["rows"]:
            if row["kernel_recall"] is not None:
                assert row["kernel_recall"] == 1.0


if __name__ == "__main__":
    table, data = run_pprl_bench()
    emit(table, "pprl", data=data)
