"""Tests for repro.utils.clock."""

import pytest

from repro.utils.clock import SimulatedClock


class TestSimulatedClock:
    def test_starts_at_zero_by_default(self):
        assert SimulatedClock().now == 0.0

    def test_custom_start_time(self):
        assert SimulatedClock(start_time=100.0).now == 100.0

    def test_advance_accumulates(self):
        clock = SimulatedClock()
        clock.advance(5)
        clock.advance(2.5)
        assert clock.now == 7.5

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1)

    def test_advance_to_future(self):
        clock = SimulatedClock()
        clock.advance_to(42.0)
        assert clock.now == 42.0

    def test_advance_to_past_is_noop(self):
        clock = SimulatedClock(start_time=10)
        clock.advance_to(5)
        assert clock.now == 10
