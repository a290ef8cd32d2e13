"""The latency model behind the execution-time breakdown (Fig. 7).

The paper measures wall-clock time of every workflow phase on a campus LAN
against Sepolia and finds that blockchain interaction dominates both the
owners' and the buyer's total time.  The reproduction attributes simulated
durations to each phase:

* **on-chain operations** -- dominated by waiting for block inclusion; the
  chain's simulated clock advances one 12-second slot per produced block, and
  a MetaMask confirmation delay is added per transaction;
* **off-chain operations** -- local training throughput, IPFS/LAN transfer
  bandwidth and aggregation/incentive compute are modeled with simple rate
  parameters calibrated to the magnitudes a workstation with two RTX A5000
  GPUs and a campus LAN would see.

The absolute numbers are configurable; the Fig. 7 claim being reproduced is
the *shape* of the breakdown (blockchain wait >> everything else).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class LatencyModel:
    """Rates used to convert work into simulated seconds."""

    training_sample_passes_per_second: float = 2_000.0
    """Local training speed: (samples x epochs) processed per second."""

    lan_bandwidth_bytes_per_second: float = 12_500_000.0
    """Campus-LAN transfer rate (100 Mbit/s) used for IPFS transfers."""

    ipfs_overhead_seconds: float = 0.35
    """Fixed per-object IPFS overhead (hashing, DHT announce)."""

    metamask_confirmation_seconds: float = 3.0
    """Time for the user to review and approve a MetaMask popup."""

    aggregation_seconds_per_update: float = 1.5
    """One-shot aggregation compute cost per collected model."""

    incentive_seconds_per_evaluation: float = 1.5
    """Cost of one value-function evaluation (re-aggregation + test pass)."""

    payment_calculation_seconds: float = 0.5
    """Turning contribution scores into a payment plan."""

    def training_time(self, num_samples: int, epochs: int) -> float:
        """Simulated seconds of local training."""
        if num_samples < 0 or epochs < 0:
            raise ValueError("num_samples and epochs must be non-negative")
        return (num_samples * epochs) / self.training_sample_passes_per_second

    def transfer_time(self, num_bytes: int) -> float:
        """Simulated seconds to move ``num_bytes`` over the LAN (plus overhead)."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        return self.ipfs_overhead_seconds + num_bytes / self.lan_bandwidth_bytes_per_second

    def aggregation_time(self, num_updates: int) -> float:
        """Simulated seconds to run the one-shot aggregation."""
        return max(0, num_updates) * self.aggregation_seconds_per_update

    def incentive_time(self, num_evaluations: int) -> float:
        """Simulated seconds to compute the contribution report."""
        return max(0, num_evaluations) * self.incentive_seconds_per_evaluation


@dataclass
class TimeBreakdown:
    """Accumulated simulated durations per phase for one participant."""

    role: str
    phases: Dict[str, float] = field(default_factory=dict, init=False)

    def add(self, phase: str, seconds: float) -> None:
        """Attribute ``seconds`` to ``phase``."""
        if seconds < 0:
            raise ValueError(f"cannot add negative time: {seconds}")
        self.phases[phase] = self.phases.get(phase, 0.0) + float(seconds)

    @property
    def total(self) -> float:
        """Total simulated seconds across phases."""
        return sum(self.phases.values())

    def blockchain_fraction(self, blockchain_phases: Tuple[str, ...]) -> float:
        """Fraction of total time spent in the given blockchain phases."""
        total = self.total
        if total == 0:
            return 0.0
        return sum(self.phases.get(phase, 0.0) for phase in blockchain_phases) / total

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {"role": self.role, "phases": dict(self.phases), "total": self.total}


def merge_breakdowns(breakdowns: List[TimeBreakdown], role: str) -> TimeBreakdown:
    """Average several participants' breakdowns into one representative one.

    Fig. 7 shows a single distribution per role; owners are averaged since
    their workflows are symmetric.
    """
    merged = TimeBreakdown(role=role)
    if not breakdowns:
        return merged
    for breakdown in breakdowns:
        for phase, seconds in breakdown.phases.items():
            merged.add(phase, seconds / len(breakdowns))
    return merged
