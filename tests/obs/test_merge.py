"""Merging per-process MetricsRegistry snapshots into one pool view."""

import json

import pytest

from repro.obs import MetricsRegistry, merge_metric, merge_snapshots


def snapshots_of(*builders, include_samples=True):
    """Label -> snapshot for one registry per builder callable."""
    sources = {}
    for i, build in enumerate(builders):
        registry = MetricsRegistry()
        build(registry)
        sources[f"replica{i}"] = registry.snapshot(
            include_samples=include_samples)
    return sources


class TestCounterMerge:
    def test_values_sum_across_sources(self):
        sources = snapshots_of(
            lambda r: r.counter("serve.requests").inc(3),
            lambda r: r.counter("serve.requests").inc(4))
        merged = merge_snapshots(sources)
        assert merged["serve.requests"] == {"kind": "counter", "value": 7.0}

    def test_missing_in_one_source_is_fine(self):
        sources = snapshots_of(
            lambda r: r.counter("only.here").inc(),
            lambda r: r.counter("other").inc(2))
        merged = merge_snapshots(sources)
        assert merged["only.here"]["value"] == 1.0
        assert merged["other"]["value"] == 2.0


class TestGaugeMerge:
    def test_most_writes_wins_and_writes_sum(self):
        def busy(registry):
            gauge = registry.gauge("depth")
            gauge.set(1.0)
            gauge.set(2.0)
            gauge.set(8.0)

        sources = snapshots_of(lambda r: r.gauge("depth").set(3.0), busy)
        merged = merge_snapshots(sources)
        assert merged["depth"]["value"] == 8.0
        assert merged["depth"]["writes"] == 4

    def test_tie_breaks_on_label_order(self):
        sources = snapshots_of(lambda r: r.gauge("g").set(1.0),
                               lambda r: r.gauge("g").set(2.0))
        # equal writes: the lexically last label (replica1) owns the value
        assert merge_snapshots(sources)["g"]["value"] == 2.0


class TestHistogramMerge:
    def test_bucket_counts_add_over_union(self):
        sources = snapshots_of(
            lambda r: [r.histogram("lat", buckets=(1.0, 2.0)).observe(v)
                       for v in (0.5, 1.5)],
            lambda r: [r.histogram("lat", buckets=(1.0, 2.0)).observe(v)
                       for v in (0.7, 99.0)])
        merged = merge_snapshots(sources)["lat"]
        assert merged["buckets"] == {"1.0": 2, "2.0": 1}
        assert merged["count"] == 4
        assert merged["overflow"] == 1
        assert merged["min"] == 0.5 and merged["max"] == 99.0
        assert merged["mean"] == pytest.approx((0.5 + 1.5 + 0.7 + 99.0) / 4)


class TestQuantileMerge:
    def test_pooled_samples_make_exact_quantiles(self):
        sources = snapshots_of(
            lambda r: r.quantiles("q").observe_many(range(0, 50)),
            lambda r: r.quantiles("q").observe_many(range(50, 100)))
        merged = merge_snapshots(sources)["q"]
        assert merged["count"] == 100
        assert merged["p50"] == 50  # nearest-rank over the pooled reservoir
        assert merged["p99"] == 99

    def test_degrades_to_weighted_average_without_samples(self):
        sources = snapshots_of(
            lambda r: r.quantiles("q").observe_many(range(0, 50)),
            lambda r: r.quantiles("q").observe_many(range(50, 100)),
            include_samples=False)
        merged = merge_snapshots(sources)["q"]
        assert merged["count"] == 100
        # each source contributes its own p50 (24 and 74), equal weights
        assert merged["p50"] == pytest.approx((24 + 74) / 2, abs=2.0)


class TestTimerMerge:
    def test_counts_and_sums_add(self):
        def t(registry, values):
            timer = registry.timer("step")
            for value in values:
                timer.observe(value)

        sources = snapshots_of(lambda r: t(r, [1.0]),
                               lambda r: t(r, [2.0, 3.0]))
        merged = merge_snapshots(sources)["step"]
        assert merged["count"] == 3
        assert merged["sum"] == pytest.approx(6.0)
        assert merged["last"] == 3.0  # from the source with more counts


class TestConflicts:
    def test_kind_conflict_raises_strict(self):
        sources = snapshots_of(lambda r: r.counter("x").inc(),
                               lambda r: r.gauge("x").set(1.0))
        with pytest.raises(ValueError, match="conflicting kinds"):
            merge_snapshots(sources)

    def test_kind_conflict_annotated_lenient(self):
        sources = snapshots_of(lambda r: r.counter("x").inc(),
                               lambda r: r.gauge("x").set(1.0))
        merged = merge_snapshots(sources, strict=False)
        assert merged["x"]["kind"] == "conflict"
        assert merged["x"]["sources"] == ["replica0", "replica1"]

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown kind"):
            merge_metric("m", [("a", {"kind": "sparkline"})])


class TestShape:
    def test_empty_sources_skipped(self):
        sources = snapshots_of(lambda r: r.counter("c").inc())
        sources["dead-replica"] = {}
        merged = merge_snapshots(sources)
        assert merged["c"]["value"] == 1.0

    def test_merged_snapshot_is_json_serializable(self):
        sources = snapshots_of(
            lambda r: (r.counter("c").inc(),
                       r.histogram("h").observe(0.1),
                       r.quantiles("q").observe(1.0),
                       r.timer("t").observe(0.5),
                       r.gauge("g").set(2.0)))
        json.dumps(merge_snapshots(sources))

    def test_one_source_merges_to_itself(self):
        """A lone source's snapshot is the merge, also where re-deriving a
        quantile or an EWMA from ``value * count`` would round it."""
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(2.5)
        for value in (0.486, 0.63, 0.845):
            registry.histogram("h").observe(value)
            registry.quantiles("q").observe(value)
        for value in (0.016, 0.271, 0.705, 0.372, 0.17):
            registry.timer("t").observe(value)
        snapshot = registry.snapshot()
        assert merge_snapshots({"server": snapshot}) == snapshot
        sampled = registry.snapshot(include_samples=True)
        assert merge_snapshots({"router": sampled}) == snapshot
