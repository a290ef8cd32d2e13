"""The replication cluster: N replicas, leader rotation, convergence.

:class:`ChainCluster` is the control plane over a set of
:class:`~repro.cluster.replica.Replica` objects and one
:class:`~repro.cluster.gossip.GossipLayer`:

* **leader rotation** -- the leader for height *h* is replica
  ``(h - 1) % N`` (round-robin on the simulated slot clock), so exactly one
  replica produces each height while the cluster is healthy.  When the
  designated leader is dead or unreachable, the next alive replica in
  rotation takes over (configurable: ``ClusterConfig.failover``);
* **production** -- :meth:`tick` advances the clock to the next slot
  boundary, pumps gossip, and lets each reachable partition side's leader
  produce a block.  During a partition both sides keep producing, which is
  exactly the divergence longest-chain fork choice later resolves;
* **writes** -- :meth:`submit` routes a signed transaction to the current
  write leader's mempool and floods it to every peer;
* **mints** -- faucet credits are out-of-band governance operations applied
  to every live replica synchronously (dead replicas receive them on
  recovery), because mints never travel inside blocks;
* **convergence** -- :meth:`converge` runs explicit anti-entropy rounds
  (pairwise head exchange over reachable links) until no replica's chain
  changes; after a heal this drives every replica to the byte-identical
  longest head.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from repro.errors import ClusterError
from repro.chain.chain import ChainConfig
from repro.cluster.config import (
    GEO_INTER_REGION_LATENCY_SECONDS,
    GEO_INTRA_REGION_LATENCY_SECONDS,
    ClusterConfig,
)
from repro.cluster.gossip import GossipLayer
from repro.cluster.replica import Replica
from repro.obs import NULL_OBSERVABILITY
from repro.utils.clock import SimulatedClock
from repro.utils.rng import derive_seed


def build_cluster_network(config: ClusterConfig) -> Optional[Any]:
    """The inter-replica :class:`~repro.simnet.netmodel.NetworkModel`.

    With ``regions`` set, links are heterogeneous: intra-region hops are
    LAN-fast, inter-region hops pay the geo latency.  Otherwise the named
    ``repro.simnet`` profile applies to every link (``"ideal"`` -> ``None``,
    the instant lossless wire).
    """
    from repro.simnet.netmodel import LinkProfile, NetworkModel
    from repro.simnet.profiles import make_network

    seed = derive_seed(config.seed, "cluster-net")
    if config.regions is None:
        return make_network(config.network_profile, seed=seed)
    network = NetworkModel(
        default_profile=LinkProfile(
            latency_seconds=GEO_INTRA_REGION_LATENCY_SECONDS),
        seed=seed,
    )
    for a in range(config.replicas):
        for b in range(a + 1, config.replicas):
            if config.regions[a] != config.regions[b]:
                network.set_link(
                    f"replica-{a}", f"replica-{b}",
                    LinkProfile(
                        latency_seconds=GEO_INTER_REGION_LATENCY_SECONDS,
                        jitter_seconds=GEO_INTER_REGION_LATENCY_SECONDS / 8,
                    ),
                )
    return network


class ChainCluster:
    """N replicated chain nodes behind one leader-routing control plane."""

    def __init__(
        self,
        config: Union[ClusterConfig, int],
        *,
        clock: Optional[SimulatedClock] = None,
        registry: Any = None,
        chain_config: Optional[ChainConfig] = None,
        network: Optional[Any] = None,
        storage: Optional[Any] = None,
    ) -> None:
        if isinstance(config, int):
            config = ClusterConfig(replicas=config)
        self.config = config
        self.clock = clock or SimulatedClock()
        self.registry = registry
        self.chain_config = chain_config or ChainConfig()
        self.network = network if network is not None else \
            build_cluster_network(config)
        genesis_timestamp = self.clock.now

        from repro.storage.engine import StorageEngine, ensure_engine

        engines = [ensure_engine(storage) or StorageEngine()]
        engines += [StorageEngine() for _ in range(config.replicas - 1)]
        self.replicas: List[Replica] = [
            Replica(
                index,
                clock=self.clock,
                registry=registry,
                engine=engines[index],
                genesis_timestamp=genesis_timestamp,
                chain_config=self.chain_config,
                fork_snapshot_interval=config.fork_snapshot_interval,
            )
            for index in range(config.replicas)
        ]
        self.gossip = GossipLayer(self.replicas, self.network, self.clock)
        #: Observability hooks (``repro.obs``); the no-op facade until
        #: ``Observability.instrument_cluster`` attaches one that records
        #: the structured chaos events below.
        self.obs: Any = NULL_OBSERVABILITY
        self.partitions_started = 0
        self.heals = 0
        #: Cached connected components; topology only changes through
        #: partition()/heal()/crash_replica()/recover_replica(), which
        #: invalidate it -- reads would otherwise pay an O(N^2) BFS each.
        self._groups_cache: Optional[List[List[Replica]]] = None

    # -- topology ---------------------------------------------------------------

    def alive_replicas(self) -> List[Replica]:
        """Replicas currently up, in index order."""
        return [replica for replica in self.replicas if replica.alive]

    def reachable_groups(self) -> List[List[Replica]]:
        """Connected components of alive replicas under the current links.

        One group while the network is whole; one group per partition side
        while split.  Each group independently elects a leader and produces.
        Cached between topology changes (every partition/heal/crash/recover
        goes through this cluster, which invalidates the cache).
        """
        if self._groups_cache is None:
            self._groups_cache = self._compute_groups()
        return self._groups_cache

    def _invalidate_topology(self) -> None:
        """Drop the cached groups after a partition/heal/crash/recover."""
        self._groups_cache = None

    def _compute_groups(self) -> List[List[Replica]]:
        """BFS over alive replicas and passable links."""
        alive = self.alive_replicas()
        groups: List[List[Replica]] = []
        seen: set = set()
        for replica in alive:
            if replica.index in seen:
                continue
            group = [replica]
            seen.add(replica.index)
            frontier = [replica]
            while frontier:
                current = frontier.pop()
                for other in alive:
                    if other.index in seen:
                        continue
                    if self.gossip.reachable(current.index, other.index):
                        seen.add(other.index)
                        group.append(other)
                        frontier.append(other)
            groups.append(sorted(group, key=lambda r: r.index))
        return groups

    def partition(self, groups: Sequence[Sequence[int]]) -> None:
        """Split the gossip network into isolated replica-index groups."""
        if self.network is None:
            raise ClusterError(
                "cannot partition an ideal cluster network; give the "
                "cluster a real network profile (e.g. 'lan')")
        self.network.partition(
            [[self.replicas[i].name for i in group] for group in groups])
        self.partitions_started += 1
        self._invalidate_topology()
        self.obs.event("cluster.partition",
                       groups=[sorted(int(i) for i in group)
                               for group in groups])

    def heal(self) -> None:
        """Remove the partition (gossip resumes; convergence follows).

        A flood sent into the partition was dropped, not queued, so every
        replica re-floods what it still has pending to the peers it could
        not reach -- otherwise a transaction admitted on one side stays
        unknown to the next leader until it is mined.
        """
        alive = self.alive_replicas()
        cut_off = {
            replica.index: [other.index for other in alive
                            if not self.gossip.reachable(replica.index, other.index)]
            for replica in alive
        }
        if self.network is not None:
            self.network.heal()
        self.heals += 1
        self._invalidate_topology()
        self.obs.event("cluster.heal")
        for replica in alive:
            for tx in replica.chain.mempool.pending():
                self.gossip.flood_tx(replica.index, tx, cut_off[replica.index])

    # -- leadership ---------------------------------------------------------------

    def leader_for_height(self, height: int,
                          group: Optional[List[Replica]] = None
                          ) -> Optional[Replica]:
        """The replica entitled to produce block ``height`` (or its backup).

        Round-robin base: replica ``(height - 1) % N``.  If that replica is
        dead or outside ``group`` and failover is enabled, the next alive
        in-group replica in rotation takes over; with failover disabled the
        height has no producer until the designated leader returns.
        """
        members = group if group is not None else self.alive_replicas()
        if not members:
            return None
        count = len(self.replicas)
        base = (int(height) - 1) % count
        by_index = {replica.index: replica for replica in members
                    if replica.alive}
        if not self.config.failover:
            return by_index.get(base)
        for offset in range(count):
            candidate = by_index.get((base + offset) % count)
            if candidate is not None:
                return candidate
        return None

    def primary_group(self) -> List[Replica]:
        """The primary partition side: clients reach the cluster through it.

        Defined as the reachable group containing the lowest-index alive
        replica -- the ONE definition shared by write routing
        (:meth:`leader_replica`) and the node facade's consistency-critical
        reads, so they can never disagree about which side is primary.
        """
        groups = self.reachable_groups()
        if not groups:
            raise ClusterError("every replica in the cluster is down")
        return min(groups, key=lambda group: group[0].index)

    def leader_replica(self) -> Replica:
        """The current *write* leader: who the gateway routes writes to.

        The leader is whoever produces the primary side's next height.
        """
        primary = self.primary_group()
        height = max(replica.height for replica in primary)
        leader = self.leader_for_height(height + 1, primary)
        if leader is None:
            raise ClusterError(
                "the primary side has no eligible leader (failover is off "
                "and the designated leader is down)")
        return leader

    def attach_follower_analytics(self) -> Any:
        """Attach a columnar analytics replica to a *follower* replica.

        Picks the alive replica furthest from write leadership (the last
        one in rotation order after the current leader) so analytical
        scans never share a process with the ingest leader -- the HTAP
        placement Polynesia argues for.  With only one replica alive, that
        replica serves both roles.  Returns the feeder; the follower's
        ``logs``/``logs_page`` fan-out reads are served from the columns
        from now on (sticky across crash/recover/resync).
        """
        leader = self.leader_replica()
        alive = self.alive_replicas()
        follower = max(
            alive,
            key=lambda replica:
                (replica.index - leader.index) % len(self.replicas))
        return follower.attach_analytics()

    # -- production ----------------------------------------------------------------

    def pump(self) -> int:
        """Deliver all gossip due at the current simulated time."""
        return self.gossip.deliver_due(self.clock.now)

    def produce_now(self, force: bool = False) -> List[Any]:
        """One production round at the current time, per reachable group.

        Each group's leader produces a block on its *own* chain when its
        mempool has work (always, with ``force``), then announces the new
        head to every peer.  Returns the produced blocks.
        """
        self.pump()
        produced = []
        consensus = self._consensus()
        now_slot = consensus.slot_at(self.clock.now)
        for group in self.reachable_groups():
            height = max(replica.height for replica in group)
            leader = self.leader_for_height(height + 1, group)
            if leader is None:
                continue
            # One block per slot per side: when this side's best tip already
            # sits in the current slot, a second producer (e.g. a synchronous
            # wait_for_receipt racing the slot-cadence producer process)
            # would fork the chain for nothing.
            best_tip = max((replica.chain.latest_block for replica in group),
                           key=lambda block: block.number)
            if best_tip.number > 0 and \
                    consensus.slot_at(best_tip.timestamp) == now_slot:
                continue
            if not force and len(leader.chain.mempool) == 0:
                continue
            block = leader.chain.produce_block(advance_clock=False)
            leader.blocks_produced += 1
            self.gossip.announce_block(leader.index, block.hash, block.number)
            produced.append(block)
        self.pump()
        return produced

    def tick(self, force: bool = False) -> List[Any]:
        """Advance the clock one slot boundary and run a production round."""
        self.clock.advance_to(
            self._consensus().next_block_timestamp(self.clock.now))
        return self.produce_now(force=force)

    def _consensus(self):
        """Any live replica's consensus schedule (all share one config)."""
        alive = self.alive_replicas()
        source = alive[0] if alive else self.replicas[0]
        return source.chain.consensus

    # -- writes and mints -----------------------------------------------------------

    def submit(self, tx: Any) -> str:
        """Route a signed transaction to the write leader; flood to peers."""
        leader = self.leader_replica()
        tx_hash = leader.chain.submit_transaction(tx)
        self.gossip.flood_tx(leader.index, tx)
        return tx_hash

    def mint(self, address: Any, amount_wei: int) -> None:
        """Credit ``address`` on every replica (faucet fan-out).

        Mints never travel inside blocks, so replication happens here: live
        replicas apply the credit synchronously, dead replicas queue it and
        re-apply on recovery.  Out-of-band by design -- the operator's
        handbook documents this as the one non-gossiped mutation.
        """
        for replica in self.replicas:
            if replica.alive:
                replica.chain.mint(address, amount_wei)
            else:
                replica.missed_mints.append((str(address), int(amount_wei)))

    # -- failures --------------------------------------------------------------------

    def crash_replica(self, index: int) -> Replica:
        """Kill replica ``index`` (its disk survives; its memory does not)."""
        replica = self.replicas[index]
        replica.crash()
        self._invalidate_topology()
        self.obs.event("cluster.crash", replica=replica.name)
        return replica

    def recover_replica(self, index: int) -> Replica:
        """Recover replica ``index`` from its WAL, then catch it up via a peer."""
        replica = self.replicas[index]
        replica.recover()
        self._invalidate_topology()
        self.obs.event("cluster.recover", replica=replica.name,
                       height=replica.height)
        peers = [other for other in self.alive_replicas()
                 if other is not replica
                 and self.gossip.reachable(replica.index, other.index)]
        if peers:
            best = max(peers, key=lambda r: (r.height, r.head_hash))
            self.gossip.sync_from(replica, best, best.head_hash)
        return replica

    # -- convergence -----------------------------------------------------------------

    def heads_identical(self) -> bool:
        """Whether every alive replica serves the byte-identical chain head."""
        heads = {(replica.height, replica.head_hash)
                 for replica in self.alive_replicas()}
        return len(heads) <= 1

    def converge(self, max_rounds: int = 16) -> bool:
        """Anti-entropy until stable: pairwise head pulls over reachable links.

        Returns whether all alive replicas ended on one head.  Bounded by
        ``max_rounds`` defensively; one round per divergent branch suffices
        in practice because fork choice is deterministic (longest chain,
        lexicographic tie-break), so the loop cannot flap.
        """
        self.gossip.drain()
        for _ in range(max_rounds):
            changed = False
            for target in self.alive_replicas():
                for source in self.alive_replicas():
                    if source is target:
                        continue
                    if not self.gossip.reachable(target.index, source.index):
                        continue
                    if target.head_hash == source.head_hash:
                        continue
                    changed |= self.gossip.sync_from(
                        target, source, source.head_hash)
            self.gossip.drain()
            if not changed:
                break
        return self.heads_identical()

    # -- reporting -------------------------------------------------------------------

    def finalized_height(self) -> int:
        """Highest height every alive replica agrees on, minus finality depth."""
        alive = self.alive_replicas()
        if not alive:
            return 0
        return max(0, min(replica.height for replica in alive)
                   - self.config.finality_depth)

    def status(self) -> Dict[str, Any]:
        """Cluster-wide status document (``repro cluster status``)."""
        replicas = [replica.status() for replica in self.replicas]
        try:
            leader = self.leader_replica().name
        except ClusterError:
            leader = None
        return {
            "config": self.config.to_dict(),
            "clock_now": self.clock.now,
            "leader": leader,
            "converged": self.heads_identical(),
            "finalized_height": self.finalized_height(),
            "partitioned": (self.network.partitioned
                            if self.network is not None else False),
            "partitions_started": self.partitions_started,
            "heals": self.heals,
            "reorgs_total": sum(r["fork"]["reorgs"] for r in replicas),
            "side_blocks_seen": sum(r["fork"]["side_blocks_seen"]
                                    for r in replicas),
            "replicas": replicas,
            "gossip": self.gossip.stats.to_dict(),
            "network": (self.network.stats.to_dict()
                        if self.network is not None else None),
        }
