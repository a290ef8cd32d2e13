"""Load-run and saturation-sweep reports.

A :class:`LoadReport` separates *simulated* metrics (arrival counts, mined
transactions, confirmation latencies on the sim clock -- deterministic for a
given seed) from *wall-clock* metrics (how fast this process actually served
the requests -- the numbers the perf work moves).  A sweep runs the same
workload at increasing offered rates and reports the saturation knee: the
first rate the chain can no longer keep up with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class LoadReport:
    """Everything one load-generator run reports."""

    config: Dict[str, Any]
    #: Simulated seconds from the first arrival to the end of the drain.
    makespan_seconds: float = 0.0
    #: Wall-clock seconds the run took to execute.
    wall_seconds: float = 0.0
    events_executed: int = 0
    offered_requests: int = 0
    ops: Dict[str, dict] = field(default_factory=dict)
    #: Transfer lifecycle on the simulated clock.
    tx_submitted: int = 0
    tx_mined: int = 0
    #: Transfers mined before the load window closed (saturation metric --
    #: excludes the post-window drain tail).
    tx_mined_in_window: int = 0
    #: Closed-loop transfers whose receipt never arrived in the poll budget
    #: (tracked apart from per-op errors: their submissions already counted).
    receipt_timeouts: int = 0
    tx_confirmation: Dict[str, float] = field(default_factory=dict)
    blocks_produced: int = 0
    mempool_max_depth: int = 0
    rpc_stats: Optional[Dict[str, Any]] = None
    arrival: Dict[str, Any] = field(default_factory=dict)
    #: ``repro.obs`` facade snapshot when the run had observability enabled;
    #: ``None`` (the default) keeps saved reports byte-identical to pre-obs
    #: runs -- same conditional-key contract as ``rpc_stats``.
    obs_stats: Optional[Dict[str, Any]] = None
    #: ``chain.batchverify_stats()`` when the driven node deferred signature
    #: checks to block production; ``None`` keeps saved reports
    #: byte-identical to verify-at-submission runs.
    batchverify_stats: Optional[Dict[str, Any]] = None

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

    @property
    def wall_rps(self) -> float:
        """Requests served per *wall-clock* second (driver + stack cost)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.requests_total / self.wall_seconds

    def sim_dict(self) -> dict:
        """The deterministic (simulated-clock) subset of the report.

        Two runs with the same config and seed produce the identical
        ``sim_dict`` -- the property the determinism tests pin down.
        """
        return {
            "config": dict(self.config),
            "arrival": dict(self.arrival),
            "makespan_seconds": round(self.makespan_seconds, 6),
            "events_executed": self.events_executed,
            "offered_requests": self.offered_requests,
            "requests_total": self.requests_total,
            "errors_total": self.errors_total,
            "error_rate": round(self.error_rate, 6),
            "ops": {
                name: {key: value for key, value in op.items()
                       if key != "service_seconds"}
                for name, op in sorted(self.ops.items())
            },
            "tx_submitted": self.tx_submitted,
            "tx_mined": self.tx_mined,
            "tx_mined_in_window": self.tx_mined_in_window,
            "receipt_timeouts": self.receipt_timeouts,
            "in_window_mined_fraction": round(self.in_window_mined_fraction, 6),
            "tx_confirmation_seconds": dict(self.tx_confirmation),
            "achieved_tx_tps": round(self.achieved_tx_tps, 6),
            "blocks_produced": self.blocks_produced,
            "mempool_max_depth": self.mempool_max_depth,
            "rpc_requests_total": (self.rpc_stats or {}).get("requests_total"),
        }

    def to_dict(self) -> dict:
        payload = {
            "schema": "oflw3-load-report/v1",
            **self.sim_dict(),
            "wall_seconds": round(self.wall_seconds, 3),
            "wall_rps": round(self.wall_rps, 3),
            "ops_service": {name: op["service_seconds"]
                            for name, op in sorted(self.ops.items())},
        }
        if self.rpc_stats is not None:
            payload["rpc_stats"] = dict(self.rpc_stats)
        if self.obs_stats is not None:
            payload["obs"] = self.obs_stats
        if self.batchverify_stats is not None:
            payload["batch_verify"] = dict(self.batchverify_stats)
        return payload

    def summary(self) -> str:
        """Human-readable multi-line summary for the CLI."""
        lines = [
            f"offered {self.offered_requests} requests over "
            f"{self.makespan_seconds:.0f} simulated seconds "
            f"({self.wall_seconds:.1f}s wall, {self.wall_rps:,.0f} req/s wall)",
            f"errors: {self.errors_total}/{self.requests_total} "
            f"({100 * self.error_rate:.2f}%)",
        ]
        for name, op in sorted(self.ops.items()):
            service = op["service_seconds"]
            lines.append(
                f"  {name:<10} {op['attempts']:>7} reqs  "
                f"err {100 * op['error_rate']:>6.2f}%  "
                f"service p50/p95/p99 "
                f"{service['p50'] * 1000:.2f}/{service['p95'] * 1000:.2f}/"
                f"{service['p99'] * 1000:.2f} ms"
            )
        if self.tx_submitted:
            conf = self.tx_confirmation
            lines.append(
                f"transfers: {self.tx_mined}/{self.tx_submitted} mined, "
                f"{self.achieved_tx_tps:.2f} tx/s (sim), confirmation "
                f"p50/p95/p99 {conf.get('p50', 0):.1f}/{conf.get('p95', 0):.1f}/"
                f"{conf.get('p99', 0):.1f} s, "
                f"mempool peak {self.mempool_max_depth}"
            )
        if self.obs_stats is not None:
            lines.append(
                f"obs: {self.obs_stats.get('spans_total', 0)} spans over "
                f"{self.obs_stats.get('traces_total', 0)} traces, "
                f"{self.obs_stats.get('events_total', 0)} structured events")
        if self.batchverify_stats is not None:
            stats = self.batchverify_stats
            detail = f"{stats.get('deferred_rejections', 0)} evicted"
            if stats.get("pipeline_fallbacks"):
                reasons = ", ".join(
                    f"{count} {reason}" for reason, count
                    in stats.get("fallback_reasons", {}).items())
                detail += (f", {stats['pipeline_fallbacks']} fallbacks: "
                           f"{reasons}")
            lines.append(
                f"batch verify: {stats.get('verify_workers')} workers, "
                f"{stats.get('deferred_admissions', 0)} signatures deferred "
                f"over {stats.get('blocks_settled', 0)} settles ({detail})")
        lines.append(f"blocks produced: {self.blocks_produced}")
        return "\n".join(lines)


@dataclass
class SweepPoint:
    """One offered-rate point of a saturation sweep."""

    offered_rate: float
    offered_tx_rate: float
    achieved_tx_tps: float
    tx_submitted: int
    tx_mined: int
    in_window_mined_fraction: float
    confirmation_p50: float
    confirmation_p99: float
    error_rate: float
    mempool_max_depth: int

    @classmethod
    def from_report(cls, offered_rate: float, offered_tx_rate: float,
                    report: LoadReport) -> "SweepPoint":
        conf = report.tx_confirmation
        return cls(
            offered_rate=offered_rate,
            offered_tx_rate=offered_tx_rate,
            achieved_tx_tps=report.achieved_tx_tps,
            tx_submitted=report.tx_submitted,
            tx_mined=report.tx_mined,
            in_window_mined_fraction=report.in_window_mined_fraction,
            confirmation_p50=conf.get("p50", 0.0),
            confirmation_p99=conf.get("p99", 0.0),
            error_rate=report.error_rate,
            mempool_max_depth=report.mempool_max_depth,
        )

    @property
    def saturated(self) -> bool:
        """Whether the chain failed to keep up with the offered tx rate.

        Saturation means a durable backlog: fewer than 80% of the window's
        submissions were mined inside the window.
        """
        return self.in_window_mined_fraction < 0.8

    def to_dict(self) -> dict:
        return {
            "offered_rate": self.offered_rate,
            "offered_tx_rate": round(self.offered_tx_rate, 4),
            "achieved_tx_tps": round(self.achieved_tx_tps, 4),
            "tx_submitted": self.tx_submitted,
            "tx_mined": self.tx_mined,
            "in_window_mined_fraction": round(self.in_window_mined_fraction, 4),
            "confirmation_p50": round(self.confirmation_p50, 3),
            "confirmation_p99": round(self.confirmation_p99, 3),
            "error_rate": round(self.error_rate, 6),
            "mempool_max_depth": self.mempool_max_depth,
            "saturated": self.saturated,
        }


@dataclass
class SweepReport:
    """A saturation sweep: simulated-clock metrics only, so ``to_dict()`` is
    a pure function of the config and the offered rates."""

    points: List[SweepPoint] = field(default_factory=list)

    @property
    def saturation_rate(self) -> Optional[float]:
        """Offered rate of the first saturated point (None if none saturated)."""
        for point in self.points:
            if point.saturated:
                return point.offered_rate
        return None

    def to_dict(self) -> dict:
        return {
            "schema": "oflw3-load-sweep/v2",
            "points": [point.to_dict() for point in self.points],
            "saturation_rate": self.saturation_rate,
        }

    def summary(self) -> str:
        header = (f"{'offered/s':>10} {'tx/s off':>9} {'tx/s got':>9} "
                  f"{'in-win %':>9} {'p50 conf':>9} {'p99 conf':>9} "
                  f"{'err %':>7} {'pool max':>9} {'sat':>4}")
        lines = ["saturation sweep (simulated clock):", header, "-" * len(header)]
        for point in self.points:
            lines.append(
                f"{point.offered_rate:>10.1f} {point.offered_tx_rate:>9.2f} "
                f"{point.achieved_tx_tps:>9.2f} "
                f"{100 * point.in_window_mined_fraction:>9.1f} "
                f"{point.confirmation_p50:>9.1f} "
                f"{point.confirmation_p99:>9.1f} {100 * point.error_rate:>7.2f} "
                f"{point.mempool_max_depth:>9} "
                f"{'yes' if point.saturated else 'no':>4}"
            )
        knee = self.saturation_rate
        lines.append(
            "saturation knee: "
            + (f"{knee:.1f} offered req/s" if knee is not None
               else "not reached in this sweep")
        )
        return "\n".join(lines)
