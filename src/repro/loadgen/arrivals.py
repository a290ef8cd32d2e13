"""Deterministic arrival processes and skewed selectors for the load driver.

Realistic load is neither uniform in time nor uniform over keys: request
inter-arrival times follow a Poisson process (with flash crowds on top), and
the popularity of senders/content follows a Zipfian distribution.
Every process here draws from a seeded NumPy generator, so two runs with the
same seed produce the identical arrival schedule -- which is what makes load
reports comparable run over run.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from repro.errors import SimulationError
from repro.utils.rng import SeedLike, make_rng


class ArrivalProcess:
    """Base class: yields the gap (simulated seconds) to the next arrival.

    ``next_gap(now)`` receives the current simulated time so a time-varying
    process (the flash crowd) can modulate its instantaneous rate.
    """

    def next_gap(self, now: float) -> float:
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: exponential gaps with mean ``1/rate``."""

    def __init__(self, rate: float, seed: SeedLike = None) -> None:
        if rate <= 0:
            raise SimulationError(f"arrival rate must be positive, got {rate}")
        self.rate = float(rate)
        self._rng = make_rng(seed, "poisson-arrivals")

    def next_gap(self, now: float) -> float:
        return float(self._rng.exponential(1.0 / self.rate))

    def describe(self) -> dict:
        return {"kind": "poisson", "rate": self.rate}


class FlashCrowdArrivals(ArrivalProcess):
    """Poisson arrivals with a rate spike (the flash crowd) in the middle.

    The rate is ``base_rate`` outside the window ``[spike_start,
    spike_start + spike_duration)`` (measured from the first call) and
    ``spike_rate`` inside it.
    """

    def __init__(self, base_rate: float, spike_rate: float, spike_start: float,
                 spike_duration: float, seed: SeedLike = None) -> None:
        if base_rate <= 0 or spike_rate <= 0:
            raise SimulationError(
                f"flash-crowd rates must be positive, got {base_rate}/{spike_rate}")
        if spike_start < 0 or spike_duration <= 0:
            raise SimulationError(
                f"spike window must be non-negative start with positive duration, "
                f"got start={spike_start}, duration={spike_duration}")
        self.base_rate = float(base_rate)
        self.spike_rate = float(spike_rate)
        self.spike_start = float(spike_start)
        self.spike_duration = float(spike_duration)
        self._rng = make_rng(seed, "flashcrowd-arrivals")
        self._origin: Optional[float] = None

    def rate_at(self, now: float) -> float:
        """Instantaneous arrival rate at simulated time ``now``."""
        if self._origin is None:
            return self.base_rate
        offset = now - self._origin
        if self.spike_start <= offset < self.spike_start + self.spike_duration:
            return self.spike_rate
        return self.base_rate

    def next_gap(self, now: float) -> float:
        if self._origin is None:
            self._origin = now
        return float(self._rng.exponential(1.0 / self.rate_at(now)))

    def describe(self) -> dict:
        return {"kind": "flashcrowd", "base_rate": self.base_rate,
                "spike_rate": self.spike_rate, "spike_start": self.spike_start,
                "spike_duration": self.spike_duration}


def make_arrivals(kind: str, rate: float, *, seed: SeedLike, spike_start: float,
                  spike_duration: float) -> ArrivalProcess:
    """Build a named arrival process: ``poisson``, or ``flashcrowd`` spiking
    to ten times ``rate`` over ``[spike_start, spike_start + spike_duration)``."""
    if kind == "poisson":
        return PoissonArrivals(rate, seed=seed)
    if kind == "flashcrowd":
        return FlashCrowdArrivals(
            base_rate=rate, spike_rate=rate * 10.0, spike_start=spike_start,
            spike_duration=spike_duration, seed=seed)
    raise SimulationError(
        f"unknown arrival process {kind!r}; choose from poisson, flashcrowd")


class ZipfSelector:
    """Samples indices ``0..n-1`` with probability proportional to
    ``1 / (rank+1)^exponent`` -- the standard skewed-popularity model.

    Sampling is a binary search over the precomputed CDF, so a draw costs
    ``O(log n)`` even for thousands of keys, and is fully determined by the
    seed.  NumPy is imported here, where the weights are built, so a process
    that only imports the package (the chain-only ``presigned_transfers``
    fixture) never loads it.
    """

    def __init__(self, n: int, exponent: float = 1.1, seed: SeedLike = None) -> None:
        if n <= 0:
            raise SimulationError(f"selector needs at least one item, got {n}")
        if exponent < 0:
            raise SimulationError(f"zipf exponent must be non-negative, got {exponent}")
        self.n = int(n)
        self.exponent = float(exponent)
        import numpy as np

        weights = (1.0 / np.arange(1, self.n + 1, dtype=np.float64) ** self.exponent)
        probabilities = weights / weights.sum()
        self._probabilities = probabilities.tolist()
        self._cdf = np.cumsum(probabilities).tolist()
        self._rng = make_rng(seed, "zipf-selector")

    def sample(self) -> int:
        """Draw one index.

        Clamped: float accumulation can leave ``cdf[-1]`` a few ulps below
        1.0, and a draw in that sliver would otherwise index one past the
        end.
        """
        return min(bisect_right(self._cdf, self._rng.random()), self.n - 1)
