"""Percentile accounting against hand-computed values.

The nearest-rank definition is ``sorted_values[ceil(q/100 * n) - 1]``; every
expected value below is worked out by hand from that formula.
"""

import pytest

from repro.errors import SimulationError
from repro.loadgen import LatencyStats, OpStats, percentile


class TestPercentile:
    def test_ten_known_values(self):
        # n=10: p50 -> rank ceil(5)=5 -> 5th smallest; p95 -> ceil(9.5)=10;
        # p99 -> ceil(9.9)=10.
        values = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        assert percentile(values, 50) == 50
        assert percentile(values, 95) == 100
        assert percentile(values, 99) == 100
        assert percentile(values, 10) == 10
        assert percentile(values, 100) == 100

    def test_unsorted_input(self):
        assert percentile([3, 1, 2], 50) == 2  # ceil(1.5)=2 -> 2nd smallest

    def test_five_values(self):
        # n=5: p50 -> ceil(2.5)=3 -> 3rd smallest; p95/p99 -> ceil(4.75/4.95)=5.
        values = [12.0, 7.0, 3.0, 9.0, 5.0]  # sorted: 3, 5, 7, 9, 12
        assert percentile(values, 50) == 7.0
        assert percentile(values, 95) == 12.0
        assert percentile(values, 20) == 3.0  # ceil(1.0)=1 -> smallest

    def test_single_value(self):
        assert percentile([42.0], 50) == 42.0
        assert percentile([42.0], 99) == 42.0

    def test_duplicates(self):
        assert percentile([1, 1, 1, 9], 50) == 1  # ceil(2)=2 -> 2nd smallest

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(SimulationError):
            percentile([1.0], 0)
        with pytest.raises(SimulationError):
            percentile([1.0], 101)


class TestLatencyStats:
    def test_summary_against_hand_computation(self):
        stats = LatencyStats()
        for value in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]:
            stats.record(value)
        summary = stats.to_dict()
        assert summary["count"] == 10
        assert summary["mean"] == pytest.approx(0.55)
        assert summary["max"] == 1.0
        assert summary["p50"] == pytest.approx(0.5)   # 5th smallest
        assert summary["p95"] == pytest.approx(1.0)   # 10th smallest
        assert summary["p99"] == pytest.approx(1.0)

    def test_empty_summary_is_zeroes(self):
        assert LatencyStats().to_dict() == {
            "count": 0, "mean": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            LatencyStats().record(-0.1)


class TestOpStats:
    def test_error_accounting_by_class(self):
        stats = OpStats("transfer")
        stats.record_success()
        stats.record_error(ValueError("boom"))
        stats.record_error(ValueError("boom again"))
        stats.record_error(KeyError("gone"))
        assert stats.attempts == 4
        assert stats.successes == 1
        assert stats.errors == 3
        assert stats.error_rate == pytest.approx(0.75)
        assert stats.errors_by_class == {"ValueError": 2, "KeyError": 1}

    def test_to_dict_shape(self):
        stats = OpStats("read")
        stats.record_success()
        stats.record_error(KeyError("gone"))
        assert stats.to_dict() == {
            "attempts": 2, "successes": 1, "errors": 1, "error_rate": 0.5,
            "errors_by_class": {"KeyError": 1}}
