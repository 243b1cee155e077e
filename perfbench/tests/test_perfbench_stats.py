"""Percentiles and the ten-samples-beyond rule."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from stats import highest_supported, latency_summary, percentile, supported  # noqa: E402


def test_nearest_rank_percentiles_are_measured_values():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(samples, 0.5) == 50
    assert percentile(samples, 0.9) == 90
    assert percentile(samples, 0.99) == 99
    assert percentile(samples, 1.0) == 100
    assert percentile([7.5], 0.99) == 7.5
    assert percentile([3, 1, 2], 0.5) == 2


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


def test_ten_samples_beyond_rule():
    assert supported(1000, 0.99)
    assert not supported(999, 0.99)
    assert supported(100, 0.9)
    assert not supported(99, 0.9)
    assert supported(20, 0.5)
    assert not supported(19, 0.5)
    assert highest_supported(1000) == 0.99
    assert highest_supported(500) == 0.9
    assert highest_supported(5) is None


def test_latency_summary_reports_count_and_rule_in_ms():
    summary = latency_summary([0.001 * i for i in range(1, 201)])
    assert summary["samples"] == 200
    assert summary["p50_ms"] == pytest.approx(100.0)
    assert summary["p90_ms"] == pytest.approx(180.0)
    assert summary["p95_ms"] == pytest.approx(190.0)
    assert summary["p99_ms"] == pytest.approx(198.0)
    assert summary["p95_supported"] is True
    assert summary["p99_supported"] is False
    assert summary["highest_supported"] == 0.9

