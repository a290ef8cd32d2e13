"""Arrival-process statistics: the distributions must match their math.

Tolerances are generous enough to be seed-independent in principle, but the
processes are seeded, so these tests are fully deterministic in practice.
"""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.loadgen import (
    DEFAULT_MIX,
    FlashCrowdArrivals,
    PoissonArrivals,
    RequestMix,
    ZipfSelector,
    make_arrivals,
)
from repro.utils.rng import make_rng


def draw_gaps(process, count, start=0.0):
    now = start
    gaps = []
    for _ in range(count):
        gap = process.next_gap(now)
        gaps.append(gap)
        now += gap
    return gaps


class TestPoisson:
    def test_mean_gap_matches_rate(self):
        rate = 8.0
        gaps = draw_gaps(PoissonArrivals(rate, seed=11), 20_000)
        mean = sum(gaps) / len(gaps)
        assert mean == pytest.approx(1.0 / rate, rel=0.05)

    def test_variance_matches_exponential(self):
        # An exponential's variance is the square of its mean.
        rate = 4.0
        gaps = draw_gaps(PoissonArrivals(rate, seed=3), 20_000)
        mean = sum(gaps) / len(gaps)
        variance = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        assert variance == pytest.approx((1.0 / rate) ** 2, rel=0.1)

    def test_memorylessness_cv(self):
        # Coefficient of variation of an exponential is 1.
        gaps = draw_gaps(PoissonArrivals(2.0, seed=7), 20_000)
        mean = sum(gaps) / len(gaps)
        std = math.sqrt(sum((g - mean) ** 2 for g in gaps) / len(gaps))
        assert std / mean == pytest.approx(1.0, rel=0.1)

    def test_same_seed_same_schedule(self):
        a = draw_gaps(PoissonArrivals(5.0, seed=42), 500)
        b = draw_gaps(PoissonArrivals(5.0, seed=42), 500)
        assert a == b

    def test_different_seeds_differ(self):
        a = draw_gaps(PoissonArrivals(5.0, seed=1), 50)
        b = draw_gaps(PoissonArrivals(5.0, seed=2), 50)
        assert a != b

    def test_rejects_non_positive_rate(self):
        with pytest.raises(SimulationError):
            PoissonArrivals(0.0)


class TestFlashCrowd:
    def test_rate_spikes_in_window(self):
        process = FlashCrowdArrivals(base_rate=2.0, spike_rate=40.0,
                                     spike_start=60.0, spike_duration=30.0, seed=1)
        process.next_gap(0.0)
        assert process.rate_at(10.0) == pytest.approx(2.0)
        assert process.rate_at(70.0) == pytest.approx(40.0)
        assert process.rate_at(95.0) == pytest.approx(2.0)

    def test_spike_compresses_gaps(self):
        process = FlashCrowdArrivals(base_rate=2.0, spike_rate=100.0,
                                     spike_start=50.0, spike_duration=50.0, seed=2)
        now, in_spike, outside = 0.0, [], []
        for _ in range(5_000):
            gap = process.next_gap(now)
            (in_spike if 50.0 <= now < 100.0 else outside).append(gap)
            now += gap
            if now > 150.0:
                break
        assert in_spike, "the spike window produced no arrivals"
        assert (sum(in_spike) / len(in_spike)) < (sum(outside) / len(outside)) / 10


class TestMakeArrivals:
    WINDOW = dict(spike_start=10.0, spike_duration=5.0)

    def test_registry_covers_all_kinds(self):
        assert isinstance(make_arrivals("poisson", 2.0, seed=1, **self.WINDOW),
                          PoissonArrivals)
        crowd = make_arrivals("flashcrowd", 2.0, seed=1, **self.WINDOW)
        assert isinstance(crowd, FlashCrowdArrivals)
        assert crowd.describe() == {"kind": "flashcrowd", "base_rate": 2.0,
                                    "spike_rate": 20.0, "spike_start": 10.0,
                                    "spike_duration": 5.0}

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            make_arrivals("bursty", 1.0, seed=1, **self.WINDOW)


def draws(selector, count):
    return [selector.sample() for _ in range(count)]


class TestZipfSelector:

    def test_empirical_frequencies_match_theory(self):
        selector = ZipfSelector(20, exponent=1.2, seed=13)
        weights = [(rank + 1) ** -1.2 for rank in range(20)]
        counts = [0] * 20
        for index in draws(selector, 50_000):
            counts[index] += 1
        for rank in (0, 1, 4):
            empirical = counts[rank] / 50_000
            assert empirical == pytest.approx(weights[rank] / sum(weights), rel=0.1)

    def test_skew_concentrates_mass(self):
        flat = ZipfSelector(1000, exponent=0.0, seed=3)
        skewed = ZipfSelector(1000, exponent=1.5, seed=3)
        flat_top = sum(1 for i in draws(flat, 5_000) if i < 10)
        skewed_top = sum(1 for i in draws(skewed, 5_000) if i < 10)
        assert skewed_top > 10 * flat_top

    def test_deterministic(self):
        assert (draws(ZipfSelector(50, 1.1, seed=7), 100)
                == draws(ZipfSelector(50, 1.1, seed=7), 100))

    def test_all_draws_in_range(self):
        selector = ZipfSelector(5, exponent=2.0, seed=21)
        assert all(0 <= i < 5 for i in draws(selector, 1_000))

    def test_worst_case_draw_is_clamped(self):
        # Float accumulation leaves cdf[-1] a hair under 1.0; the largest
        # value rng.random() can produce lands above it and must clamp to
        # the last index instead of running off the end.
        selector = ZipfSelector(1000, exponent=1.1, seed=2)

        class TopDraw:
            @staticmethod
            def random():
                return 1.0 - 2.0**-53

        selector._rng = TopDraw()
        assert selector.sample() == 999


class TestDrawsEqualNumpysSearch:
    """The samplers bisect a list CDF.  Each draw must be the index numpy's
    ``searchsorted(cumsum(p), u, side="right")`` gives for the same ``u``,
    so a seeded load replays exactly as it did when they drew through numpy."""

    @staticmethod
    def reference(probabilities, label, count):
        rng, cdf = make_rng(5, label), np.cumsum(probabilities)
        return [min(int(np.searchsorted(cdf, rng.random(), side="right")), len(cdf) - 1)
                for _ in range(count)]

    @pytest.mark.parametrize("n, exponent", [(1, 1.1), (7, 0.0), (64, 1.1), (1000, 2.0)])
    def test_zipf_selector(self, n, exponent):
        weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
        expected = self.reference(weights / weights.sum(), "zipf-selector", 3_000)
        assert draws(ZipfSelector(n, exponent, seed=5), 3_000) == expected

    @pytest.mark.parametrize("weights", [
        DEFAULT_MIX, {"transfer": 1, "read": 1, "ipfs": 1, "analytics": 1},
        {"read": 0.1, "analytics": 0.7}])
    def test_request_mix(self, weights):
        mix = RequestMix(weights, seed=5)
        kinds = list(mix.weights)
        expected = self.reference([mix.weights[kind] for kind in kinds], "request-mix", 3_000)
        assert [mix.sample() for _ in range(3_000)] == [kinds[index] for index in expected]
