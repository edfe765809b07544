"""Tier-1 smoke pass over the PPRL benchmark logic.

Runs the kernel and encode arms of :mod:`benchmarks.bench_pprl` at toy
scale and the trade-off arm on the smallest dataset, checking structural
outputs -- exact top-k agreement, identical kernel and oracle filters,
plaintext-vs-CLK F1 ordering, kernel-exactness recall -- WITHOUT
asserting wall-clock speedups, so the test is stable on loaded CI
machines.  The real 10^5-filter timing comparison lives in
``benchmarks/bench_pprl.py`` (CI runs it at smoke scale in the bench job,
which also enforces the >= 10x bar and the encode floor).
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from bench_pprl import (  # noqa: E402
    CLK_CONFIGS, best_f1, churn_catalog, run_encode_arm, run_kernel_arm,
    run_tradeoff_arm, synthetic_filters,
)


@pytest.mark.smoke
def test_kernel_arm_smoke():
    result = run_kernel_arm(n=2000, n_queries=3, words=4, k=5,
                            naive_rows=300, seed=1)
    assert result["n"] == 2000 and result["queries"] == 3
    # exactness is scale-independent: the kernel is a full scan, so the
    # top-k must match the pure-Python ranking even on a toy catalog
    assert result["topk_agreement"] == 1.0
    assert result["kernel_query_ms"] > 0
    assert result["naive_query_ms_extrapolated"] > 0
    assert result["speedup"] > 0  # no 10x bar here: timing-free tier 1


@pytest.mark.smoke
def test_synthetic_filters_near_half_fill():
    rng = np.random.default_rng(7)
    filters = synthetic_filters(500, 4, rng)
    assert filters.shape == (500, 4) and filters.dtype == np.uint64
    fill = np.unpackbits(filters.view(np.uint8)).mean()
    assert 0.45 < fill < 0.55


@pytest.mark.smoke
def test_best_f1_sweep():
    # perfect separation -> F1 1.0 at a threshold between the classes
    f1, threshold = best_f1([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert f1 == 1.0 and threshold >= 0.8
    # all-negative labels degenerate to zero, not a crash
    assert best_f1([0.5, 0.4], [0, 0]) == (0.0, 0.0)


@pytest.mark.smoke
def test_tradeoff_arm_smoke():
    tradeoff = run_tradeoff_arm("REL-HETER", k=10)
    assert tradeoff["pairs"] > 0 and tradeoff["true_matches"] > 0
    rows = tradeoff["rows"]
    assert len(rows) == 1 + len(CLK_CONFIGS)
    plain = rows[0]
    assert plain["config"].startswith("plaintext")
    assert plain["f1_cost"] == 0.0 and plain["kernel_recall"] is None
    for row in rows[1:]:
        # CLK never beats the plaintext grams it approximates
        assert row["f1"] <= plain["f1"] + 1e-9
        assert 0.0 <= row["blocker_recall"] <= 1.0
        # kernel-exactness canary: packed top-k == reference ranking
        assert row["kernel_recall"] == 1.0


@pytest.mark.smoke
def test_encode_arm_smoke():
    records = churn_catalog(entities=40)
    rows = run_encode_arm(records, nbits=256)
    assert [row["hardening"] for row in rows] == ["none", "balance", "fold"]
    for row in rows:
        assert row["records"] == len(records) > 0
        # the kernel and the per-gram oracle encode the same filters
        assert row["identical"]
        assert row["kernel_cold_records_per_s"] > 0
        assert row["oracle_records_per_s"] > 0
