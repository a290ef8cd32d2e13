"""Declarative cluster topology: replica count, links, leadership knobs.

A :class:`ClusterConfig` describes one chain-replication cluster the way a
:class:`~repro.simnet.scenario.ScenarioSpec` describes one experiment: how
many replicas run, what the inter-replica links look like (a named
``repro.simnet`` network profile, or per-replica *regions* for a geo
topology), how leader failover behaves, and how often replicas snapshot
their state for reorg rollback.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.errors import ClusterError

#: Inter-region one-way latency (seconds) used by geo topologies: replicas in
#: the same region talk at LAN speed, replicas in different regions pay this.
GEO_INTER_REGION_LATENCY_SECONDS = 0.08

#: Intra-region latency for geo topologies (a fast metro LAN).
GEO_INTRA_REGION_LATENCY_SECONDS = 0.001


@dataclass(frozen=True)
class ClusterConfig:
    """Static parameters of one replication cluster."""

    replicas: int = 3
    """Number of chain replicas (each owns a full copy of the chain)."""

    network_profile: str = "ideal"
    """Inter-replica link profile (a ``repro.simnet.profiles`` name).  The
    ``"ideal"`` default delivers gossip instantly and never drops."""

    regions: Optional[Tuple[int, ...]] = None
    """Optional region id per replica (geo topology): intra-region links are
    LAN-fast, inter-region links pay :data:`GEO_INTER_REGION_LATENCY_SECONDS`.
    Overrides ``network_profile`` when set."""

    failover: bool = True
    """Whether a dead or unreachable leader's slot is handed to the next
    replica in rotation.  With ``False`` the height simply stalls until the
    designated leader returns -- useful to study availability loss."""

    fork_snapshot_interval: int = 8
    """Blocks between in-memory rollback snapshots on each replica (the
    cost/rollback-depth trade-off of ``Blockchain.reorg_to``)."""

    finality_depth: int = 12
    """Blocks below the head considered final for reporting purposes.  With
    longest-chain fork choice this is advisory: it holds whenever partitions
    are shorter than ``finality_depth`` blocks, which the property tests
    arrange and the operator's handbook explains."""

    seed: int = 0
    """Seed for the gossip network model's jitter/drop draws."""

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ClusterError(
                f"a cluster needs at least one replica, got {self.replicas}")
        if self.regions is not None and len(self.regions) != self.replicas:
            raise ClusterError(
                f"regions must list one region per replica "
                f"({self.replicas}), got {len(self.regions)}")
        if self.fork_snapshot_interval < 1:
            raise ClusterError(
                f"fork_snapshot_interval must be positive, "
                f"got {self.fork_snapshot_interval}")
        if self.finality_depth < 1:
            raise ClusterError(
                f"finality_depth must be positive, got {self.finality_depth}")

    def with_overrides(self, **kwargs: Any) -> "ClusterConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (embedded in cluster status and reports)."""
        return {
            "replicas": self.replicas,
            "network_profile": self.network_profile,
            "regions": list(self.regions) if self.regions is not None else None,
            "failover": self.failover,
            "fork_snapshot_interval": self.fork_snapshot_interval,
            "finality_depth": self.finality_depth,
            "seed": self.seed,
        }
