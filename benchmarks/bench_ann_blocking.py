"""ANN blocking benchmark: sub-linear dense candidate generation vs the
exact sparse overlap top-k path.

Catalog model: a seeded synthetic corpus of duplicate *groups* (the GEM
blocking shape -- every entity has a handful of near-copies, everything
else is far). Each entity yields both

* a **token set** (core tokens shared within the group plus per-record
  noise, zipf-weighted vocabulary) feeding the repo's own exact sparse
  path -- :class:`repro.serve.ServingIndex.candidates`, which walks the
  postings of every query token and scores all touched records; and
* an **embedding** (unit vector: group prototype + jitter) feeding the
  :mod:`repro.ann` indexes, quantized to int8 and probed with the fused
  kernels.

Per query the two arms do their full candidate-generation work for the
same top-k budget. Each arm's per-query milliseconds must stay under an
absolute ceiling for its kind and scale (:data:`QUERY_MS_CEILING`), and
at least one ANN config must clear recall 0.95 against the *exact
float32 dense top-k* (ties id-broken, same rule everywhere).
``int8_agreement`` reports full-scan int8 vs float32 top-k membership
overlap (the quantization-only error, config-independent), with its
>= 0.99 acceptance bar. The ``speedup`` column, sparse-per-query time
over ANN-per-query time, is information only: a ratio hides a change
that slows both arms and fails when the baseline arm gets faster. The
headline ratio is the best config whose recall clears 0.95.

Embedding the catalog with the frozen bi-encoder is a one-time build
cost, reported separately (measured on a subsample, extrapolated) and
never part of the per-query timing.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np

from _harness import MODEL_NAME, emit  # noqa: E402
from repro.ann import (  # noqa: E402
    RecordEncoder, blocked_topk_dot, exact_topk_dot, make_index,
    quantize_int8,
)
from repro.data.records import EntityRecord  # noqa: E402
from repro.eval import bench_scale, render_table  # noqa: E402
from repro.serve import ServingIndex  # noqa: E402


#: per-query ceilings in ms for each arm kind at each bench scale. On a
#: 2-vCPU x86 host (Python 3.11.7, numpy 2.4.6, one OpenBLAS thread) the
#: slowest config of each kind read, over eleven smoke runs (in six, one
#: other arm was slowed on purpose) and three paper runs: smoke sparse
#: 0.20-0.51, ivf 0.19-0.37, lsh 0.17-0.30; paper sparse 1.9-2.7, ivf
#: 0.94-1.45, lsh 0.49-0.74. The ceilings leave about 3-6x of that for
#: slower runners and sit below a real slowdown of each arm: at smoke
#: scale, an IVF or LSH probe that returns every row read 1.5-2.3 ms a
#: query, and the dict-of-set sparse index the array index replaced
#: 23-33 ms.
QUERY_MS_CEILING = {
    "smoke": {"sparse": 3.0, "ivf": 1.2, "lsh": 1.2},
    "paper": {"sparse": 12.0, "ivf": 5.0, "lsh": 3.0},
}


def token_text(token_ids):
    """Space-joined words for vocabulary ids: ``tok`` plus the id's four
    base-26 letters (``tokaaaa``, ``tokbaaa``, ...), distinct for ids
    below 26**4. Letters only, because the sparse blocker's
    ``record_tokens`` splits digits off and drops 1-char tokens."""
    return " ".join(
        "tok" + "".join(chr(97 + int(t) // 26 ** i % 26) for i in range(4))
        for t in token_ids)


def synthetic_catalog(n, n_queries, dim=64, group=10, vocab=20000,
                      core_tokens=8, noise_tokens=4, jitter=0.15, seed=0):
    """Seeded duplicate-group corpus: token sets + unit embeddings.

    Returns ``(texts, vectors, query_texts, query_vectors)``; queries are
    fresh perturbations of existing groups, so each query has ~``group``
    true near-duplicates in the catalog.
    """
    rng = np.random.default_rng(seed)
    entities = -(-n // group)
    ranks = np.arange(1, vocab + 1, dtype=np.float64)
    weights = (1.0 / ranks ** 1.07)
    weights /= weights.sum()

    protos = rng.normal(size=(entities, dim)).astype(np.float32)
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    cores = [rng.choice(vocab, size=core_tokens, replace=False, p=weights)
             for _ in range(entities)]

    def make_row(entity):
        tokens = np.concatenate([
            cores[entity],
            rng.choice(vocab, size=noise_tokens, replace=False, p=weights)])
        text = token_text(tokens)
        noise = rng.normal(size=dim).astype(np.float32)
        noise *= jitter / np.linalg.norm(noise)
        vector = protos[entity] + noise
        return text, vector / np.linalg.norm(vector)

    texts, vectors = [], np.empty((n, dim), dtype=np.float32)
    for i in range(n):
        texts.append(None)
        texts[i], vectors[i] = make_row(i // group)
    q_texts, q_vectors = [], np.empty((n_queries, dim), dtype=np.float32)
    picks = rng.integers(0, entities, size=n_queries)
    for i in range(n_queries):
        q_texts.append(None)
        q_texts[i], q_vectors[i] = make_row(int(picks[i]))
    return texts, vectors, q_texts, q_vectors


def build_sparse_index(texts):
    index = ServingIndex(threshold=0.0, default_k=10)
    index.add_many(EntityRecord.text_record(f"r{i:06d}", text)
                   for i, text in enumerate(texts))
    return index


def time_sparse(index, query_records, k):
    started = time.perf_counter()
    for record in query_records:
        index.candidates(record, k)
    return (time.perf_counter() - started) / len(query_records)


def time_ann(index, query_vectors, k):
    results = []
    started = time.perf_counter()
    for i in range(query_vectors.shape[0]):
        results.append(index.search(query_vectors[i], k))
    elapsed = time.perf_counter() - started
    return elapsed / query_vectors.shape[0], results


def dense_recall(results, query_vectors, vectors, k):
    """Fraction of exact float32 top-k ids the ANN results retained."""
    hits = wanted = 0
    for i, found in enumerate(results):
        rows, _ = exact_topk_dot(query_vectors[i], vectors, k)
        exact = {f"r{r:06d}" for r in rows.tolist()}
        got = {record_id for record_id, _ in found}
        hits += len(exact & got)
        wanted += min(k, len(exact))
    return hits / wanted if wanted else 1.0


def int8_agreement(query_vectors, vectors, codes, scales, k):
    """Full-scan int8 top-k membership vs exact float32 top-k."""
    agree = total = 0
    for i in range(query_vectors.shape[0]):
        exact_rows, _ = exact_topk_dot(query_vectors[i], vectors, k)
        int8_rows, _ = blocked_topk_dot(query_vectors[i], codes, scales, k)
        exact = set(exact_rows.tolist())
        agree += len(exact & set(int8_rows.tolist()))
        total += min(k, len(exact))
    return agree / total if total else 1.0


def embed_build_cost(n_total, sample=1000, max_len=32):
    """One-time encoder cost, measured on a sample and extrapolated."""
    rng = np.random.default_rng(7)
    records = [EntityRecord.text_record(
        f"e{i}", token_text(rng.integers(0, 20000, 12)))
        for i in range(sample)]
    encoder = RecordEncoder(model_name=MODEL_NAME, max_len=max_len)
    encoder.encode_records(records[:32])        # warm the checkpoint
    started = time.perf_counter()
    encoder.encode_records(records)
    elapsed = time.perf_counter() - started
    per_record = elapsed / sample
    return {"records_per_sec": 1.0 / per_record,
            "full_catalog_seconds": per_record * n_total}


def ann_configs(n):
    nlist = max(16, int(np.sqrt(n) * 2))
    return [
        ("ivf", {"nlist": nlist, "nprobe": 2}),
        ("ivf", {"nlist": nlist, "nprobe": 4}),
        ("ivf", {"nlist": nlist, "nprobe": 8}),
        ("ivf", {"nlist": nlist, "nprobe": 16}),
        ("lsh", {"num_bands": 16, "band_bits": 14, "probes": 2}),
    ]


def run_ann_blocking_bench(n=None, n_queries=None, k=10, seed=0):
    scale = bench_scale()
    if n is None:
        n = 10_000 if scale.name == "smoke" else 100_000
    if n_queries is None:
        n_queries = 50 if scale.name == "smoke" else 200

    texts, vectors, q_texts, q_vectors = synthetic_catalog(
        n, n_queries, seed=seed)
    codes, scales_arr = quantize_int8(vectors)

    sparse = build_sparse_index(texts)
    query_records = [EntityRecord.text_record(f"q{i:04d}", text)
                     for i, text in enumerate(q_texts)]
    time_sparse(sparse, query_records[: max(2, n_queries // 10)], k)  # warm
    sparse_s = time_sparse(sparse, query_records, k)

    agreement = int8_agreement(q_vectors, vectors, codes, scales_arr, k)

    rows, configs_data = [], []
    for kind, kwargs in ann_configs(n):
        index = make_index(kind, vectors.shape[1], seed=seed, **kwargs)
        build_started = time.perf_counter()
        if hasattr(index, "train"):
            index.train(vectors)
        index.add_many((f"r{i:06d}", vectors[i]) for i in range(n))
        build_s = time.perf_counter() - build_started
        time_ann(index, q_vectors[: max(2, n_queries // 10)], k)  # warm
        ann_s, results = time_ann(index, q_vectors, k)
        recall = dense_recall(results, q_vectors, vectors, k)
        speedup = sparse_s / ann_s if ann_s else 0.0
        label = f"{kind} " + ",".join(f"{key}={value}"
                                      for key, value in kwargs.items())
        configs_data.append({
            "config": label, "kind": kind, **kwargs,
            "build_seconds": build_s,
            "query_ms": 1000 * ann_s,
            "qps": 1.0 / ann_s if ann_s else 0.0,
            "recall_at_k": recall,
            "config_speedup": speedup,
        })
        rows.append([label, f"{build_s:.2f}", f"{1000 * ann_s:.3f}",
                     f"{recall:.4f}", f"{speedup:.1f}x"])

    eligible = [c for c in configs_data if c["recall_at_k"] >= 0.95]
    headline = max((c["config_speedup"] for c in eligible), default=0.0)
    headline_cfg = max(eligible, key=lambda c: c["config_speedup"],
                       default=None) if eligible else None

    embed = embed_build_cost(n)

    rows.append(["sparse overlap top-k (exact)", "-",
                 f"{1000 * sparse_s:.3f}", "-", "1.0x"])
    table = render_table(
        ["Config", "Build s", "Query ms", f"Recall@{k}", "Speedup"],
        rows,
        title=(f"ANN blocking vs exact overlap top-k "
               f"(n={n}, q={n_queries}, k={k}, scale={scale.name})"))
    ceiling = QUERY_MS_CEILING[scale.name]
    table += (
        "\nper-query ceilings: "
        + ", ".join(f"{kind} {ms:g} ms" for kind, ms in ceiling.items())
        + f"\nheadline sparse/ANN ratio (recall >= 0.95, information): "
        f"{headline:.1f}x"
        + (f" [{headline_cfg['config']}]" if headline_cfg else "")
        + f"\nint8 vs float32 top-{k} agreement: {agreement:.4f}"
        + f"\nencoder build cost: {embed['records_per_sec']:.0f} rec/s"
        + f" (~{embed['full_catalog_seconds']:.0f}s for the full catalog,"
        + " one-time)")
    data = {
        "n": n, "queries": n_queries, "k": k, "seed": seed,
        "sparse_query_ms": 1000 * sparse_s,
        "query_ms_ceiling": ceiling,
        "configs": configs_data,
        "speedup": headline,
        "headline_config": headline_cfg["config"] if headline_cfg else None,
        "int8_agreement": agreement,
        "embed": embed,
    }
    return table, data


def test_ann_blocking(benchmark):
    table, data = benchmark.pedantic(run_ann_blocking_bench, rounds=1,
                                     iterations=1)
    emit(table, "ann_blocking", data=data)
    ceiling = data["query_ms_ceiling"]
    assert data["sparse_query_ms"] <= ceiling["sparse"]
    for config in data["configs"]:
        assert config["query_ms"] <= ceiling[config["kind"]], config["config"]
    assert data["headline_config"] is not None  # some config: recall >= 0.95
    assert data["int8_agreement"] >= 0.99
