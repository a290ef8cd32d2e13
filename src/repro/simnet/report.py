"""Per-scenario reporting: throughput, mempool pressure, gas, accuracy.

A scenario run produces one :class:`ScenarioReport` with a
:class:`TaskOutcome` per launched task plus shared-infrastructure metrics:
the mempool depth sampled over simulated time (whenever the shared clock
moved), gas spent by category, network-model counters and the accuracy /
adversary-fraction pairs that make degradation under attack visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.utils.units import format_ether


@dataclass
class TaskOutcome:
    """What one task in the scenario did."""

    index: int
    label: str
    status: str = "pending"  # pending | completed | failed
    task_address: Optional[str] = None
    started_at: float = 0.0
    finished_at: float = 0.0
    aggregate_accuracy: Optional[float] = None
    mean_local_accuracy: Optional[float] = None
    adversary_fraction: float = 0.0
    archetype_counts: Dict[str, int] = field(default_factory=dict)
    num_owners: int = 0
    num_submissions: int = 0
    gas_fee_wei: int = 0
    total_paid_wei: int = 0
    failure: Optional[str] = None

    @property
    def duration_seconds(self) -> float:
        """Simulated seconds from launch to completion."""
        return max(0.0, self.finished_at - self.started_at)

    def to_dict(self) -> dict:
        """JSON-friendly form of one task's outcome."""
        return {
            "index": self.index,
            "label": self.label,
            "status": self.status,
            "task_address": self.task_address,
            "started_at": round(self.started_at, 3),
            "finished_at": round(self.finished_at, 3),
            "duration_seconds": round(self.duration_seconds, 3),
            "aggregate_accuracy": self.aggregate_accuracy,
            "mean_local_accuracy": self.mean_local_accuracy,
            "adversary_fraction": round(self.adversary_fraction, 4),
            "archetype_counts": dict(self.archetype_counts),
            "num_owners": self.num_owners,
            "num_submissions": self.num_submissions,
            "gas_fee_wei": self.gas_fee_wei,
            "total_paid_wei": self.total_paid_wei,
            "failure": self.failure,
        }


@dataclass
class ScenarioReport:
    """Everything one scenario run reports."""

    scenario: Dict[str, Any]
    seed: int
    tasks: List[TaskOutcome] = field(default_factory=list)
    makespan_seconds: float = 0.0
    events_executed: int = 0
    mempool_depth_series: List[Tuple[float, int]] = field(default_factory=list)
    mempool_max_depth: int = 0
    mempool_total_transactions: int = 0
    blocks_produced: int = 0
    gas_by_category: Dict[str, Any] = field(default_factory=dict)
    total_gas_fee_wei: int = 0
    ipfs_bytes_transferred: int = 0
    network_stats: Optional[Dict[str, Any]] = None
    dropped_submissions: int = 0
    failed_fetch_attempts: int = 0
    rpc_stats: Optional[Dict[str, Any]] = None
    node_restarts: int = 0
    storage_stats: Optional[Dict[str, Any]] = None
    #: Deterministic metrics of the scenario's background load run
    #: (``repro.loadgen``), when the spec configured one.
    load_stats: Optional[Dict[str, Any]] = None
    #: Replication-cluster status (``repro.cluster``) for cluster scenarios:
    #: per-replica heads and counters, gossip stats, convergence flag and the
    #: partition/crash chaos events the run recorded.
    cluster_stats: Optional[Dict[str, Any]] = None
    #: ``repro.obs`` facade snapshot (metric registry, span/event counts)
    #: when the run had observability enabled; ``None`` -- the default --
    #: keeps saved reports byte-identical to pre-obs runs.
    obs_stats: Optional[Dict[str, Any]] = None
    #: Columnar analytics replica metrics (``repro.analytics``) when the
    #: spec attached one: background query counts, the feeder's freshness
    #: status and an end-of-run replica-vs-OLTP parity check.  ``None`` --
    #: the default -- keeps saved reports byte-identical to pre-analytics
    #: runs.
    analytics_stats: Optional[Dict[str, Any]] = None

    # -- derived -----------------------------------------------------------------

    @property
    def tasks_completed(self) -> int:
        """Number of tasks that ran the full seven-step workflow."""
        return sum(1 for task in self.tasks if task.status == "completed")

    @property
    def tasks_failed(self) -> int:
        """Number of tasks that aborted (deployment, owner or buyer side)."""
        return sum(1 for task in self.tasks if task.status == "failed")

    @property
    def throughput_tasks_per_hour(self) -> float:
        """Completed tasks per simulated hour."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.tasks_completed * 3600.0 / self.makespan_seconds

    def accuracy_vs_adversary_fraction(self) -> List[Tuple[float, float]]:
        """(adversary fraction, aggregate accuracy) per completed task."""
        return [
            (task.adversary_fraction, task.aggregate_accuracy)
            for task in self.tasks
            if task.status == "completed" and task.aggregate_accuracy is not None
        ]

    def to_dict(self) -> dict:
        """JSON-friendly report (saved byte-stably by ``simulate --save``)."""
        payload: dict = {
            "schema": "oflw3-scenario-report/v1",
            "scenario": dict(self.scenario),
            "seed": self.seed,
            "tasks": [task.to_dict() for task in self.tasks],
            "tasks_completed": self.tasks_completed,
            "tasks_failed": self.tasks_failed,
            "makespan_seconds": round(self.makespan_seconds, 3),
            "throughput_tasks_per_hour": round(self.throughput_tasks_per_hour, 4),
            "events_executed": self.events_executed,
            "mempool": {
                "max_depth": self.mempool_max_depth,
                "total_transactions": self.mempool_total_transactions,
                "depth_series": [
                    [round(t, 3), depth] for t, depth in self.mempool_depth_series
                ],
            },
            "blocks_produced": self.blocks_produced,
            "gas_by_category": dict(self.gas_by_category),
            "total_gas_fee_wei": self.total_gas_fee_wei,
            "ipfs_bytes_transferred": self.ipfs_bytes_transferred,
            "network": self.network_stats,
            "dropped_submissions": self.dropped_submissions,
            "failed_fetch_attempts": self.failed_fetch_attempts,
            "rpc": self.rpc_stats,
            "node_restarts": self.node_restarts,
            "storage": self.storage_stats,
            "load": self.load_stats,
            "cluster": self.cluster_stats,
        }
        # Conditional on purpose: every pre-obs key above is always present,
        # so reports saved with observability off stay byte-for-byte
        # identical to reports from before the key existed.
        if self.obs_stats is not None:
            payload["obs"] = self.obs_stats
        if self.analytics_stats is not None:
            payload["analytics"] = self.analytics_stats
        return payload

    # -- rendering ---------------------------------------------------------------

    def summary(self) -> str:
        """Multi-section human-readable report for the CLI."""
        spec = self.scenario
        lines = [
            f"scenario: {spec.get('name')} -- {spec.get('description')}",
            f"seed {self.seed}, network={spec.get('network_profile')}, "
            f"submissions={'async' if spec.get('async_submissions') else 'sync'}",
            "",
            f"tasks:      {self.tasks_completed}/{len(self.tasks)} completed"
            + (f", {self.tasks_failed} failed" if self.tasks_failed else ""),
            f"makespan:   {self.makespan_seconds:,.0f} simulated seconds "
            f"({self.throughput_tasks_per_hour:.2f} tasks/hour)",
            f"events:     {self.events_executed} scheduler events, "
            f"{self.blocks_produced} blocks produced",
            f"mempool:    max depth {self.mempool_max_depth}, "
            f"{self.mempool_total_transactions} transactions total",
            f"gas:        {format_ether(self.total_gas_fee_wei)} ETH in fees",
            f"ipfs:       {self.ipfs_bytes_transferred / 1024:.1f} KB exchanged",
        ]
        if self.network_stats is not None:
            net = self.network_stats
            lines.append(
                f"network:    {net.get('messages', 0)} messages, "
                f"{net.get('dropped', 0)} dropped, "
                f"{net.get('retransmissions', 0)} retransmissions, "
                f"{self.dropped_submissions} lost submissions, "
                f"{self.failed_fetch_attempts} failed fetches")
        if self.node_restarts:
            lines.append(
                f"storage:    {self.node_restarts} node restart(s) recovered "
                f"from WAL + snapshot")
        if self.storage_stats is not None:
            cache = self.storage_stats.get("cache", {})
            wal = self.storage_stats.get("wal", {})
            lines.append(
                f"store:      backend={self.storage_stats.get('config', {}).get('backend')}, "
                f"wal entries={sum(wal.values()) if wal else 0}, "
                f"cache hits={cache.get('hits', 0)}/"
                f"{cache.get('hits', 0) + cache.get('misses', 0)} "
                f"({cache.get('evictions', 0)} evictions)")
        if self.load_stats is not None:
            conf = self.load_stats.get("tx_confirmation_seconds", {})
            lines.append(
                f"load:       {self.load_stats.get('requests_total', 0)} background "
                f"requests ({100 * self.load_stats.get('error_rate', 0.0):.2f}% errors, "
                f"{self.load_stats.get('late_arrivals', 0)} late), "
                f"{self.load_stats.get('tx_mined', 0)}/{self.load_stats.get('tx_submitted', 0)} "
                f"transfers mined, confirmation p50/p99 "
                f"{conf.get('p50', 0):.1f}/{conf.get('p99', 0):.1f} s")
        if self.cluster_stats is not None:
            replicas = self.cluster_stats.get("replicas", [])
            heads = {row.get("head_hash") for row in replicas if row.get("alive")}
            lines.append(
                f"cluster:    {len(replicas)} replicas, "
                f"{self.cluster_stats.get('reorgs_total', 0)} reorg(s), "
                f"{self.cluster_stats.get('side_blocks_seen', 0)} side blocks, "
                f"{'converged' if self.cluster_stats.get('converged') else f'{len(heads)} distinct heads'}"
                + (f", {self.cluster_stats.get('partitions_started')} partition(s) "
                   f"/ {self.cluster_stats.get('heals')} heal(s)"
                   if self.cluster_stats.get("partitions_started") else ""))
            for event in self.cluster_stats.get("events", []):
                lines.append(
                    f"            t={event.get('at', 0):.0f}s {event.get('kind')}"
                    + (f" ({event.get('detail')})" if event.get("detail") else ""))
        if self.obs_stats is not None:
            lines.append(
                f"obs:        {self.obs_stats.get('spans_total', 0)} spans over "
                f"{self.obs_stats.get('traces_total', 0)} traces, "
                f"{self.obs_stats.get('events_total', 0)} structured events")
        if self.analytics_stats is not None:
            status = self.analytics_stats.get("status", {})
            lines.append(
                f"analytics:  {self.analytics_stats.get('queries_total', 0)} "
                f"replica queries (height {status.get('height', 0)}, "
                f"lag {status.get('lag_entries', 0)}, "
                f"{status.get('rollbacks', 0)} rollback(s)), "
                f"parity="
                f"{'ok' if self.analytics_stats.get('parity_ok') else 'FAILED'}")
        if self.rpc_stats is not None:
            top = ", ".join(
                f"{method} x{count}"
                for method, count in sorted(
                    self.rpc_stats.get("by_method", {}).items(),
                    key=lambda item: (-item[1], item[0]))[:3])
            lines.append(
                f"rpc:        {self.rpc_stats.get('requests_total', 0)} requests "
                f"through the gateway, {self.rpc_stats.get('errors_total', 0)} errors"
                + (f" (top: {top})" if top else ""))
        lines.append("")
        header = (f"{'task':<10}{'status':<11}{'adversaries':>12}{'submitted':>11}"
                  f"{'accuracy':>10}{'gas (ETH)':>14}{'duration (s)':>14}")
        lines.append(header)
        lines.append("-" * len(header))
        for task in self.tasks:
            accuracy = (f"{task.aggregate_accuracy:.4f}"
                        if task.aggregate_accuracy is not None else "-")
            lines.append(
                f"{task.label:<10}{task.status:<11}"
                f"{task.adversary_fraction:>12.0%}"
                f"{task.num_submissions:>6}/{task.num_owners:<4}"
                f"{accuracy:>10}"
                f"{format_ether(task.gas_fee_wei):>14}"
                f"{task.duration_seconds:>14,.0f}")
        pairs = self.accuracy_vs_adversary_fraction()
        if len(pairs) > 1 or (pairs and pairs[0][0] > 0):
            lines.append("")
            lines.append("aggregate accuracy vs adversary fraction:")
            for fraction, accuracy in sorted(pairs):
                lines.append(f"  {fraction:>5.0%} adversaries -> {accuracy:.4f}")
        return "\n".join(lines)
