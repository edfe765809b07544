"""Tier-1 smoke pass over the ANN blocking benchmark logic.

Runs :func:`benchmarks.bench_ann_blocking.run_ann_blocking_bench` on a
tiny synthetic catalog and checks its structural outputs -- every config
reports throughput and recall, the quantization-agreement and recall
acceptance bars hold on the separated duplicate-group data -- WITHOUT
asserting anything about wall-clock speed, so the test is stable on
loaded CI machines. The real 10^5-record sparse-vs-ANN timing comparison
lives in ``benchmarks/bench_ann_blocking.py``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from bench_ann_blocking import (  # noqa: E402
    run_ann_blocking_bench, synthetic_catalog,
)
from repro.data.blocking import record_tokens  # noqa: E402
from repro.data.records import EntityRecord  # noqa: E402


@pytest.mark.smoke
def test_ann_blocking_benchmark_smoke():
    # k == the synthetic duplicate-group size: the top-k boundary then
    # sits on the wide in-group/out-group margin, so membership bars are
    # stable; k < group would put it on near-tied within-group ranks
    table, data = run_ann_blocking_bench(n=600, n_queries=10, k=10)

    assert data["n"] == 600 and data["queries"] == 10
    assert data["sparse_query_ms"] > 0
    assert len(data["configs"]) == 5
    for config in data["configs"]:
        assert config["qps"] > 0 and config["build_seconds"] >= 0
        assert 0.0 <= config["recall_at_k"] <= 1.0
    # duplicate-group data separates cleanly: the acceptance bars must
    # hold even at toy scale (membership, not timing)
    assert any(c["recall_at_k"] >= 0.95 for c in data["configs"])
    assert data["int8_agreement"] >= 0.99
    assert data["headline_config"] is not None
    assert data["embed"]["records_per_sec"] > 0
    assert set(data["query_ms_ceiling"]) == {"sparse", "ivf", "lsh"}
    assert "ANN blocking" in table


@pytest.mark.smoke
def test_synthetic_catalog_shape_and_determinism():
    texts, vectors, q_texts, q_vectors = synthetic_catalog(
        120, 7, dim=16, seed=3)
    texts2, vectors2, _, q_vectors2 = synthetic_catalog(
        120, 7, dim=16, seed=3)
    assert texts == texts2 and (vectors == vectors2).all()
    assert (q_vectors == q_vectors2).all()
    assert vectors.shape == (120, 16) and q_vectors.shape == (7, 16)
    # unit-normalized rows, non-empty token text on both sides
    import numpy as np
    np.testing.assert_allclose(np.linalg.norm(vectors, axis=1), 1.0,
                               atol=1e-5)
    assert all(t and t.startswith("tok") for t in texts + q_texts)


@pytest.mark.smoke
def test_synthetic_tokens_survive_blocking_tokenizer():
    # the sparse arm sees record_tokens(), which splits digits off and
    # drops 1-char tokens: each record must keep its distinct words, or
    # every query ties with the whole catalog
    texts, _, q_texts, _ = synthetic_catalog(120, 7, dim=16, seed=3)
    token_sets = [record_tokens(EntityRecord.text_record(f"r{i}", text))
                  for i, text in enumerate(texts + q_texts)]
    assert all(len(tokens) >= 8 for tokens in token_sets)
    assert len(frozenset().union(*token_sets)) > 100
