"""Named simulation scenarios.

A :class:`ScenarioSpec` is a declarative description of one experiment: how
many concurrent OFL-W3 tasks run against the shared chain, how the owner
population misbehaves, what the network looks like, and whether CID
submissions go through the synchronous MetaMask flow (submit, then block on
inclusion) or the asynchronous fire-and-forget flow (broadcast, keep working,
poll for the receipt) that lets transactions from many tasks pile up in the
shared mempool.

The registry ships the scenarios the CLI exposes:

========== ==================================================================
ideal      the seed's world: one task, all honest, no network model --
           reproduces Fig. 4-7 exactly
adversarial one task with a configurable fraction of label-flipping
           poisoners (plus optional free-riders)
concurrent N tasks (default 5) with staggered starts sharing one chain node
           and mempool, asynchronous submissions
rpc_storm  concurrent tasks whose every chain/IPFS call crosses one shared,
           metered JSON-RPC gateway (the report carries the gateway's
           request metrics)
flashcrowd two tasks while skewed background traffic (``repro.loadgen``)
           spikes to 10x its base rate mid-run -- a flash crowd at the
           shared gateway
analytics_storm heavy analytical reads (logs, leaderboards, fee rollups) are
           served from a columnar replica (``repro.analytics``) while a
           flash crowd keeps ingest busy; the report carries a replica-vs-
           OLTP parity check
soak       three staggered tasks under steady Poisson background load for
           a long sustained run
lossy      one task on a congested WAN (latency, jitter, 15% drops)
churn      one task with dropouts and stragglers
restart    the chain node is killed mid-task and recovered from its
           write-ahead log + latest snapshot (``repro.storage``); the
           recovered node reaches the identical chain head, so the figures
           match an uninterrupted run
stress     everything at once: concurrent tasks, lossy WAN, poisoners,
           dropouts, stragglers
partition_heal a 4-replica chain cluster (``repro.cluster``) splits into two
           sides mid-run; both keep producing (divergent heads), then the
           partition heals and fork choice converges every replica to the
           byte-identical longest head
leader_crash a 3-replica cluster's current leader is killed mid-run;
           rotation hands the slot to the next replica, and the dead
           replica later recovers from its own WAL and catches up
geo        a 3-replica cluster spread across three regions: inter-region
           gossip pays ~80 ms per hop while the marketplace runs on top
========== ==================================================================

The full scenario catalog, the network-model knobs and the recipe for
adding a scenario live in ``docs/simnet.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro.errors import SimulationError


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one simulation scenario."""

    name: str
    description: str

    num_tasks: int = 1
    """Concurrent OFL-W3 tasks sharing one chain node and mempool."""

    task_stagger_seconds: float = 30.0
    """Simulated delay between consecutive task launches."""

    behavior_fractions: Dict[str, float] = field(default_factory=dict)
    """Archetype name -> fraction of each task's owners (rest honest)."""

    behavior_kwargs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    """Constructor kwargs per archetype (e.g. straggler mean delay)."""

    network_profile: str = "ideal"
    """Key into :data:`repro.simnet.profiles.NETWORK_PROFILES`."""

    async_submissions: bool = False
    """Fire-and-forget CID submissions + a periodic block-producer process
    (lets the shared mempool actually queue up); the synchronous default is
    the seed's submit-and-wait MetaMask flow."""

    node_restart_at_seconds: Optional[float] = None
    """Simulated time at which the chain node is killed and recovered from
    its WAL + latest snapshot (``repro.storage``).  The crash is abrupt --
    nothing is flushed beyond what the write-ahead log already holds -- and
    the recovered node must reach the identical chain head, so a scenario
    with a restart reproduces the same figures as one without."""

    background_load: Optional[Dict[str, Any]] = None
    """Overrides for a :class:`repro.loadgen.LoadGenConfig` driving skewed
    background traffic (transfers, chain reads, ``ipfs_cat``) at the shared
    gateway while the marketplace tasks run.  ``None`` -- the default, and
    the seed-exact setting -- runs no background load.  The scenario report
    carries the load run's deterministic metrics under ``load_stats``."""

    cluster: Optional[int] = None
    """Replace the single chain node with an N-replica replication cluster
    (``repro.cluster``): writes route to the rotation leader, reads
    load-balance across caught-up replicas, blocks replicate by gossip.
    ``None`` -- the seed-exact default -- keeps one node."""

    cluster_profile: str = "lan"
    """Inter-replica link profile for the cluster's gossip network (a
    ``repro.simnet.profiles`` name).  Ignored without ``cluster``."""

    cluster_regions: Optional[Tuple[int, ...]] = None
    """Optional region id per replica (geo topology: inter-region gossip
    pays WAN latency).  Requires ``cluster``."""

    partition_at_seconds: Optional[float] = None
    """Simulated time at which the cluster's gossip network splits into two
    halves (replicas ``[0, N//2)`` vs the rest).  Requires ``cluster``."""

    heal_at_seconds: Optional[float] = None
    """Simulated time at which the partition heals; anti-entropy then drives
    every replica to the byte-identical longest head."""

    leader_crash_at_seconds: Optional[float] = None
    """Simulated time at which the current cluster leader is killed
    (``kill -9``: memory gone, WAL survives).  Requires ``cluster``."""

    leader_recover_at_seconds: Optional[float] = None
    """Simulated time at which the crashed leader recovers from its WAL and
    catches back up via gossip."""

    analytics: Optional[Dict[str, Any]] = None
    """Attach a columnar analytics replica (``repro.analytics``) to the run:
    a WAL-tailing feeder serves logs, explorer pages and rollups while a
    background process issues analytical reads on a fixed cadence.  The dict
    holds the knobs (currently just ``interval_seconds``, the read cadence,
    default 15.0).  On a cluster the replica attaches to a follower (the
    HTAP pattern); single-node runs attach it to the one chain.  ``None`` --
    the seed-exact default -- attaches nothing, keeping every query on the
    OLTP scan path.  The report carries the replica's freshness status,
    query counts and an end-of-run OLTP-parity check under
    ``analytics_stats``."""

    def __post_init__(self) -> None:
        if self.num_tasks <= 0:
            raise SimulationError(f"num_tasks must be positive, got {self.num_tasks}")
        if self.task_stagger_seconds < 0:
            raise SimulationError(
                f"task_stagger_seconds must be non-negative, got {self.task_stagger_seconds}")
        if self.node_restart_at_seconds is not None and self.node_restart_at_seconds <= 0:
            raise SimulationError(
                f"node_restart_at_seconds must be positive, "
                f"got {self.node_restart_at_seconds}")
        if self.background_load is not None and not isinstance(self.background_load, dict):
            raise SimulationError(
                "background_load must be a dict of LoadGenConfig overrides, "
                f"got {type(self.background_load).__name__}")
        if self.analytics is not None:
            if not isinstance(self.analytics, dict):
                raise SimulationError(
                    "analytics must be a dict of replica knobs, "
                    f"got {type(self.analytics).__name__}")
            unknown = sorted(set(self.analytics) - {"interval_seconds"})
            if unknown:
                raise SimulationError(
                    f"unknown analytics knobs {unknown}; valid keys are "
                    f"['interval_seconds']")
            interval = self.analytics.get("interval_seconds", 15.0)
            if not isinstance(interval, (int, float)) or interval <= 0:
                raise SimulationError(
                    f"analytics interval_seconds must be positive, got {interval!r}")
        if self.cluster is not None and self.cluster < 2:
            raise SimulationError(
                f"a cluster scenario needs at least 2 replicas, got {self.cluster}")
        if self.cluster is not None and self.node_restart_at_seconds is not None:
            raise SimulationError(
                "cluster and node_restart_at_seconds are separate chaos "
                "modes: use leader_crash_at_seconds to kill a replica")
        cluster_only = {
            "cluster_regions": self.cluster_regions,
            "partition_at_seconds": self.partition_at_seconds,
            "heal_at_seconds": self.heal_at_seconds,
            "leader_crash_at_seconds": self.leader_crash_at_seconds,
            "leader_recover_at_seconds": self.leader_recover_at_seconds,
        }
        if self.cluster is None:
            bad = sorted(name for name, value in cluster_only.items()
                         if value is not None)
            if bad:
                raise SimulationError(
                    f"{', '.join(bad)} require a cluster (set cluster=N)")
        else:
            if self.cluster_regions is not None and \
                    len(self.cluster_regions) != self.cluster:
                raise SimulationError(
                    f"cluster_regions must list one region per replica "
                    f"({self.cluster}), got {len(self.cluster_regions)}")
            if self.heal_at_seconds is not None and self.partition_at_seconds is None:
                raise SimulationError(
                    "heal_at_seconds requires partition_at_seconds")
            if self.partition_at_seconds is not None and \
                    self.heal_at_seconds is not None and \
                    self.heal_at_seconds <= self.partition_at_seconds:
                raise SimulationError(
                    "heal_at_seconds must come after partition_at_seconds")
            if self.leader_recover_at_seconds is not None and \
                    self.leader_crash_at_seconds is None:
                raise SimulationError(
                    "leader_recover_at_seconds requires leader_crash_at_seconds")
            if self.leader_crash_at_seconds is not None and \
                    self.leader_recover_at_seconds is not None and \
                    self.leader_recover_at_seconds <= self.leader_crash_at_seconds:
                raise SimulationError(
                    "leader_recover_at_seconds must come after the crash")
            if self.partition_at_seconds is not None and \
                    self.cluster_profile == "ideal":
                raise SimulationError(
                    "partitions need a real cluster network profile "
                    "(the ideal wire cannot be split)")

    def with_overrides(self, **kwargs) -> "ScenarioSpec":
        """A copy of this spec with the given fields replaced."""
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """JSON-friendly form (embedded verbatim in scenario reports)."""
        payload = {
            "name": self.name,
            "description": self.description,
            "num_tasks": self.num_tasks,
            "task_stagger_seconds": self.task_stagger_seconds,
            "behavior_fractions": dict(self.behavior_fractions),
            "network_profile": self.network_profile,
            "async_submissions": self.async_submissions,
            "node_restart_at_seconds": self.node_restart_at_seconds,
            "background_load": (dict(self.background_load)
                                if self.background_load is not None else None),
            "cluster": self.cluster,
            "cluster_profile": self.cluster_profile,
            "cluster_regions": (list(self.cluster_regions)
                                if self.cluster_regions is not None else None),
            "partition_at_seconds": self.partition_at_seconds,
            "heal_at_seconds": self.heal_at_seconds,
            "leader_crash_at_seconds": self.leader_crash_at_seconds,
            "leader_recover_at_seconds": self.leader_recover_at_seconds,
        }
        # Conditional on purpose (the obs_stats pattern): every key above is
        # always present, so specs saved without an analytics replica stay
        # byte-for-byte identical to specs from before the key existed.
        if self.analytics is not None:
            payload["analytics"] = dict(self.analytics)
        return payload


SCENARIOS: Dict[str, ScenarioSpec] = {
    "ideal": ScenarioSpec(
        name="ideal",
        description="the seed's world: one task, all honest owners, ideal LAN",
    ),
    "adversarial": ScenarioSpec(
        name="adversarial",
        description="label-flipping poisoners degrade the aggregate model",
        behavior_fractions={"poisoner": 0.3},
    ),
    "concurrent": ScenarioSpec(
        name="concurrent",
        description="many tasks race for one chain node and mempool",
        num_tasks=5,
        task_stagger_seconds=45.0,
        async_submissions=True,
    ),
    "rpc_storm": ScenarioSpec(
        name="rpc_storm",
        description="concurrent tasks funnel every chain/IPFS call through "
                    "one metered JSON-RPC gateway (async submissions + "
                    "receipt polling drive the request volume)",
        num_tasks=4,
        task_stagger_seconds=20.0,
        async_submissions=True,
    ),
    "lossy": ScenarioSpec(
        name="lossy",
        description="a congested WAN: latency, jitter and 15% message loss",
        network_profile="lossy",
    ),
    "churn": ScenarioSpec(
        name="churn",
        description="owners churn out mid-task and stragglers upload late",
        behavior_fractions={"dropout": 0.2, "straggler": 0.3},
        behavior_kwargs={"straggler": {"mean_delay_seconds": 240.0}},
    ),
    "flashcrowd": ScenarioSpec(
        name="flashcrowd",
        description="a flash crowd slams the gateway mid-scenario: skewed "
                    "background reads/transfers spike to 10x their base rate "
                    "while two marketplace tasks keep running",
        num_tasks=2,
        task_stagger_seconds=60.0,
        async_submissions=True,
        background_load={
            "clients": 200,
            "rate": 8.0,
            "arrival": "flashcrowd",
            "duration_seconds": 360.0,
            "mix": {"read": 0.6, "transfer": 0.25, "ipfs": 0.15},
        },
    ),
    "analytics_storm": ScenarioSpec(
        name="analytics_storm",
        description="heavy analytical reads hammer the columnar replica "
                    "(repro.analytics) while a flash crowd keeps ingest "
                    "busy: logs, leaderboards and rollups served from the "
                    "replica must stay byte-identical to OLTP scans",
        num_tasks=2,
        task_stagger_seconds=60.0,
        async_submissions=True,
        analytics={"interval_seconds": 5.0},
        background_load={
            "clients": 150,
            "rate": 6.0,
            "arrival": "flashcrowd",
            "duration_seconds": 300.0,
            "mix": {"read": 0.3, "transfer": 0.3, "ipfs": 0.1,
                    "analytics": 0.3},
        },
    ),
    "soak": ScenarioSpec(
        name="soak",
        description="a long sustained soak: staggered tasks plus steady "
                    "Poisson background load exercise the mempool, gateway "
                    "and block production for the whole run",
        num_tasks=3,
        task_stagger_seconds=120.0,
        async_submissions=True,
        background_load={
            "clients": 150,
            "rate": 3.0,
            "arrival": "poisson",
            "duration_seconds": 900.0,
        },
    ),
    "restart": ScenarioSpec(
        name="restart",
        description="the chain node is killed mid-task and recovered from "
                    "WAL + snapshot; figures must match an uninterrupted run",
        node_restart_at_seconds=90.0,  # mid-task for the default quick preset
    ),
    "stress": ScenarioSpec(
        name="stress",
        description="concurrent tasks on a lossy WAN with a hostile population",
        num_tasks=4,
        task_stagger_seconds=30.0,
        behavior_fractions={"poisoner": 0.2, "dropout": 0.1, "straggler": 0.2},
        network_profile="lossy",
        async_submissions=True,
    ),
    "partition_heal": ScenarioSpec(
        name="partition_heal",
        description="a 4-replica chain cluster splits into two producing "
                    "sides mid-run, then heals: fork choice must converge "
                    "every replica to the byte-identical longest head",
        num_tasks=2,
        task_stagger_seconds=30.0,
        async_submissions=True,
        cluster=4,
        cluster_profile="lan",
        partition_at_seconds=60.0,
        heal_at_seconds=200.0,
    ),
    "leader_crash": ScenarioSpec(
        name="leader_crash",
        description="the cluster's current leader is killed mid-run "
                    "(rotation hands off to the next replica) and later "
                    "recovers from its own WAL, catching up via gossip",
        num_tasks=1,
        async_submissions=True,
        cluster=3,
        cluster_profile="lan",
        leader_crash_at_seconds=60.0,
        leader_recover_at_seconds=150.0,
    ),
    "geo": ScenarioSpec(
        name="geo",
        description="three chain replicas in three regions: inter-region "
                    "gossip pays ~80 ms per hop while the marketplace runs",
        num_tasks=2,
        task_stagger_seconds=45.0,
        async_submissions=True,
        cluster=3,
        cluster_profile="wan",
        cluster_regions=(0, 1, 2),
    ),
}


def build_scenario(name: str, **overrides) -> ScenarioSpec:
    """Look up a named scenario and apply field overrides."""
    if name not in SCENARIOS:
        raise SimulationError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    spec = SCENARIOS[name]
    if overrides:
        spec = spec.with_overrides(**overrides)
    return spec
