"""Latency/throughput accounting for the load driver.

Percentiles use the nearest-rank definition -- ``p(q)`` is the smallest
recorded value such that at least ``q`` percent of the sample is <= it,
i.e. ``sorted_values[ceil(q/100 * n) - 1]`` -- because it is trivially
hand-computable, which keeps the percentile tests honest and the reported
numbers unambiguous.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.errors import SimulationError

PERCENTILES = (50.0, 95.0, 99.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``0 < q <= 100``)."""
    if not values:
        raise SimulationError("cannot take a percentile of an empty sample")
    if not 0 < q <= 100:
        raise SimulationError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return float(ordered[rank - 1])


class LatencyStats:
    """Accumulates one latency population and summarizes it."""

    def __init__(self, unit: str = "s") -> None:
        self.unit = unit
        self._values: List[float] = []
        self._total = 0.0
        self._max = 0.0

    def record(self, value: float) -> None:
        """Record one latency observation (must be non-negative)."""
        if value < 0:
            raise SimulationError(f"latency cannot be negative: {value}")
        self._values.append(float(value))
        self._total += value
        if value > self._max:
            self._max = value

    def __len__(self) -> int:
        return len(self._values)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        return self._total / len(self._values) if self._values else 0.0

    def percentile(self, q: float) -> float:
        return percentile(self._values, q)

    def to_dict(self) -> Dict[str, float]:
        """Count, mean, max and the standard percentile triple."""
        if not self._values:
            return {"count": 0, "mean": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        summary = {
            "count": self.count,
            "mean": round(self.mean, 6),
            "max": round(self._max, 6),
        }
        for q in PERCENTILES:
            summary[f"p{int(q)}"] = round(self.percentile(q), 6)
        return summary


class OpStats:
    """Per-operation accounting: attempts and errors by class."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.attempts = 0
        self.successes = 0
        self.errors_by_class: Dict[str, int] = {}

    @property
    def errors(self) -> int:
        return sum(self.errors_by_class.values())

    @property
    def error_rate(self) -> float:
        return self.errors / self.attempts if self.attempts else 0.0

    def record_success(self) -> None:
        self.attempts += 1
        self.successes += 1

    def record_error(self, error: BaseException) -> None:
        self.attempts += 1
        name = type(error).__name__
        self.errors_by_class[name] = self.errors_by_class.get(name, 0) + 1

    def to_dict(self) -> dict:
        return {
            "attempts": self.attempts,
            "successes": self.successes,
            "errors": self.errors,
            "error_rate": round(self.error_rate, 6),
            "errors_by_class": dict(sorted(self.errors_by_class.items())),
        }
