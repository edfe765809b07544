"""Tests for resource metering and table rendering."""

import time

import numpy as np
import pytest

from repro.eval.reporting import render_prf_table, render_series, render_table
from repro.obs import ResourceMeter, format_bytes, format_seconds


class TestResourceMeter:
    def test_measures_wall_time(self):
        with ResourceMeter() as meter:
            time.sleep(0.05)
        assert meter.report.wall_seconds >= 0.05

    def test_tracing_off_by_default(self):
        with ResourceMeter() as meter:
            _ = [np.zeros(1000) for _ in range(100)]
        assert meter.report.peak_python_bytes == 0

    def test_tracks_allocation_peak_when_enabled(self):
        with ResourceMeter(trace_allocations=True) as meter:
            _ = [np.zeros(1000) for _ in range(100)]
        assert meter.report.peak_python_bytes > 100 * 1000 * 8 * 0.5

    def test_model_bytes_registered(self):
        with ResourceMeter() as meter:
            meter.add_model_bytes(num_parameters=1000, optimizer_copies=3)
            meter.add_bytes(500)
        assert meter.report.model_bytes == 1000 * 4 * 3 + 500

    def test_nested_tracemalloc_is_safe(self):
        with ResourceMeter(trace_allocations=True) as outer:
            with ResourceMeter(trace_allocations=True) as inner:
                pass
        assert outer.report is not None and inner.report is not None


class TestFormatting:
    @pytest.mark.parametrize("seconds,expected", [
        (26.6, "26.6s"), (444, "7.4m"), (7.4 * 60, "7.4m"),
        (51 * 3600, "51.0h"), (0, "0.0s"),
    ])
    def test_format_seconds(self, seconds, expected):
        assert format_seconds(seconds) == expected

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError):
            format_seconds(-1)

    @pytest.mark.parametrize("n,expected", [
        (500, "500B"), (2048, "2.0K"), (6 * 1024**3, "6.0G"),
        (int(105.3 * 1024**2), "105.3M"),
    ])
    def test_format_bytes(self, n, expected):
        assert format_bytes(n) == expected


class TestRenderTable:
    def test_basic_alignment(self):
        out = render_table(["a", "bbbb"], [["x", 1.23456], ["yy", 2.0]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "1.2" in out and "2.0" in out

    def test_title_rule(self):
        out = render_table(["c"], [["v"]], title="Table 9")
        assert out.splitlines()[0] == "Table 9"
        assert out.splitlines()[1] == "======="

    def test_none_renders_dash(self):
        out = render_table(["c"], [[None]])
        assert "-" in out.splitlines()[-1]

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_decimals_parameter(self):
        out = render_table(["x"], [[3.14159]], decimals=3)
        assert "3.142" in out


class TestPaperShapes:
    def test_prf_table(self):
        out = render_prf_table(
            "Table 2", ["D1", "D2"],
            {"PromptEM": {"D1": (100.0, 99.0, 99.5)},
             "BERT": {"D1": (90.0, 80.0, 84.7), "D2": (50.0, 50.0, 50.0)}})
        assert "PromptEM" in out and "D2:F" in out
        # Missing cell renders as dash.
        assert out.splitlines()[-2].count("-") >= 3

    def test_series_table(self):
        out = render_series("Figure 3", "rate", [5, 10],
                            {"PromptEM": [90.0, 95.0], "Ditto": [70.0]})
        lines = out.splitlines()
        assert "rate" in lines[2]
        assert "Figure 3" in lines[0]
        # Short series padded with dashes.
        assert lines[-1].rstrip().endswith("-")
