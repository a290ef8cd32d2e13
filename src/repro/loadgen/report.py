"""The background-load report a simnet scenario embeds.

A :class:`LoadReport` holds *simulated* metrics only (arrival counts, mined
transactions, confirmation latencies on the sim clock), so it is a pure
function of the load config, the seed and the scenario it ran beside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional


@dataclass
class LoadReport:
    """Everything one background-load run reports."""

    config: Dict[str, Any]
    #: Simulated seconds from the first arrival to the end of the drain.
    makespan_seconds: float = 0.0
    events_executed: int = 0
    offered_requests: int = 0
    #: Arrivals fired after their due time (a blocking wallet wait moved the clock).
    late_arrivals: int = 0
    ops: Dict[str, dict] = field(default_factory=dict)
    #: Transfer lifecycle on the simulated clock.
    tx_submitted: int = 0
    tx_mined: int = 0
    #: Transfers mined before the load window closed (saturation metric --
    #: excludes the post-window drain tail).
    tx_mined_in_window: int = 0
    tx_confirmation: Dict[str, float] = field(default_factory=dict)
    blocks_produced: int = 0
    mempool_max_depth: int = 0
    #: Requests the shared gateway had served when the report was taken.
    rpc_requests_total: Optional[int] = None
    arrival: Dict[str, Any] = field(default_factory=dict)

    # -- derived -----------------------------------------------------------------

    @property
    def requests_total(self) -> int:
        return sum(op["attempts"] for op in self.ops.values())

    @property
    def errors_total(self) -> int:
        return sum(op["errors"] for op in self.ops.values())

    @property
    def error_rate(self) -> float:
        total = self.requests_total
        return self.errors_total / total if total else 0.0

    @property
    def achieved_tx_tps(self) -> float:
        """Mined transactions per *simulated* second."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.tx_mined / self.makespan_seconds

    @property
    def in_window_mined_fraction(self) -> float:
        """Fraction of submitted transfers mined inside the load window.

        Close to 1.0 while the chain keeps up with the offered rate; drops
        as a mempool backlog builds.  This is the saturation signal -- it
        compares actual submissions to actual in-window inclusions, so drain
        tails and boundary effects cannot distort it.
        """
        if self.tx_submitted == 0:
            return 1.0
        return self.tx_mined_in_window / self.tx_submitted

    def sim_dict(self) -> dict:
        """The report as a dict.

        Two runs with the same config and seed produce the identical
        ``sim_dict`` -- the property the determinism tests pin down.
        """
        return {
            "config": dict(self.config),
            "arrival": dict(self.arrival),
            "makespan_seconds": round(self.makespan_seconds, 6),
            "events_executed": self.events_executed,
            "offered_requests": self.offered_requests,
            "late_arrivals": self.late_arrivals,
            "requests_total": self.requests_total,
            "errors_total": self.errors_total,
            "error_rate": round(self.error_rate, 6),
            "ops": {name: dict(op) for name, op in sorted(self.ops.items())},
            "tx_submitted": self.tx_submitted,
            "tx_mined": self.tx_mined,
            "tx_mined_in_window": self.tx_mined_in_window,
            "in_window_mined_fraction": round(self.in_window_mined_fraction, 6),
            "tx_confirmation_seconds": dict(self.tx_confirmation),
            "achieved_tx_tps": round(self.achieved_tx_tps, 6),
            "blocks_produced": self.blocks_produced,
            "mempool_max_depth": self.mempool_max_depth,
            "rpc_requests_total": self.rpc_requests_total,
        }
