"""The one place a serving stack is assembled, and the one place it is closed.

Every entry point (``repro serve``, ``simulate``, ``run``,
``cluster status``, the RPC reference) needs some subset of the paper's one
deployment (Fig. 2).  :func:`build_stack` owns *what hangs off a node and in
what order*::

    clock -> engine? -> cluster | node(batch_verify) -> faucet -> swarm
          -> gateway -> attach_storage? -> registry
          -> obs? -> analytics?

The registry is always there and is the only one: :func:`build_stack`
registers one collector on it, over the stack's parts (never the stack, so
the two form no reference cycle), which samples whatever the stack holds
*when scraped*.  A restarted node, a recovered
replica or a replaced analytics feeder is therefore no metrics concern, and a
default stack exports chain, mempool, cache and WAL series with no flag;
``observability`` adds the tracer, event log and profiler on top.

Callers choose the subset by what they pass and nothing is inferred: an
engine exists, and ``storage_stats`` is mounted, exactly when ``storage`` is
given (``docs/architecture.md``, "How a stack is assembled", tabulates who
passes what).  ``repro.cluster``, ``repro.analytics`` and ``repro.storage``
are imported only when asked for: ``repro serve`` boots through here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.chain.account import checksum_cache
from repro.chain.faucet import Faucet
from repro.chain.node import EthereumNode
from repro.contracts.registry import default_registry
from repro.errors import ConfigError, StorageError
from repro.ipfs.blockstore import BlockStore
from repro.ipfs.node import IpfsNode
from repro.ipfs.swarm import Swarm
from repro.obs import MetricsRegistry, Observability, adapters, ensure_observability
from repro.rpc.gateway import JsonRpcGateway
from repro.utils.clock import SimulatedClock

if TYPE_CHECKING:
    from repro.rpc.client import MarketplaceClient


@dataclass
class Stack:
    """Every live object of one deployment, wired by :func:`build_stack`."""

    clock: SimulatedClock
    node: EthereumNode
    faucet: Faucet
    swarm: Swarm
    gateway: JsonRpcGateway
    #: The deployment's one metrics registry (``/metrics``, ``obs_metrics``).
    registry: MetricsRegistry
    #: The storage engine the caller passed (``None``: the chain keeps no WAL,
    #: or -- on a cluster -- each replica keeps a private in-memory one).
    engine: Optional[Any] = None
    #: The ``ChainCluster`` behind ``node`` when it is a ``ClusterNode``.
    cluster: Optional[Any] = None
    obs: Optional[Observability] = None

    # -- what the stack holds right now ------------------------------------------

    @cached_property
    def rpc(self) -> MarketplaceClient:
        """The in-process SDK over ``gateway``, built on first use: a server
        answers sockets and never loads the client."""
        from repro.rpc.client import MarketplaceClient

        return MarketplaceClient(self.gateway)

    @property
    def analytics(self) -> Optional[Any]:
        """The analytics feeder serving ``analytics_*`` now, if one is attached.

        Resolved through the chain that holds it -- the analytics follower's
        on a cluster -- because a restart or a replica's recovery replaces
        the feeder along with the chain.
        """
        return _analytics(self.node, self.cluster)

    def ipfs_node(self, name: str) -> IpfsNode:
        """A new IPFS daemon on the swarm, its blocks on the engine's blob
        space ``ipfs/<name>`` if the stack has an engine, else in memory."""
        space = None if self.engine is None else self.engine.blob_space(f"ipfs/{name}")
        return IpfsNode(name, self.swarm, blockstore=BlockStore(space=space))

    # -- lifecycle -----------------------------------------------------------------

    def replace_node(self, recovered: EthereumNode) -> None:
        """Swap in a node recovered from the engine (the simulated ``kill -9``).

        What held the dead node is re-pointed -- the gateway's ``eth_*``
        namespace, the faucet, the facade's chain hooks -- and the analytics
        replica, which died with the node's memory, is rebuilt: a fresh
        feeder backfills from the recovered WAL and inherits the lifetime
        counters, and ``analytics_*`` is re-pointed at it.  Metrics read the
        node the gateway serves, so they follow without being told.
        """
        dead = self.analytics
        self.node = recovered
        self.gateway.serve_node(recovered)
        self.faucet.node = recovered
        if self.obs is not None:
            self.obs.attach_chain(recovered.chain)
        if dead is not None:
            from repro.analytics import attach_analytics

            feeder = attach_analytics(recovered.chain, obs=self.obs)
            feeder.queries = dead.queries
            feeder.rollbacks += dead.rollbacks
            self.gateway.attach_analytics(partial(_analytics, recovered, self.cluster))

    def close(self) -> None:
        """Stop the chain's verify workers and ``sync()`` a persistent engine.

        Idempotent, and the stack stays usable: the pool restarts on demand
        and the engine stays open for a caller that still snapshots it.
        """
        # No cluster replica defers verification (build_stack refuses the
        # pair), and reading ``ClusterNode.chain`` would pump gossip.
        if self.cluster is None and self.node.chain.batchverify is not None:
            self.node.chain.batchverify.close()
        if self.engine is not None and self.engine.is_persistent:
            self.engine.backend.sync()


def _caches(replies: Any, engine: Optional[Any]) -> Dict[str, Any]:
    """Every ``LRUCache`` by its ``cache=`` label: the process-wide address
    checksum cache, the gateway's reply cache and the engine's read cache."""
    caches = {"address_checksum": checksum_cache(), "rpc_reply": replies}
    if engine is not None:
        caches["storage"] = engine.cache
    return caches


def _analytics(node: EthereumNode, cluster: Optional[Any]) -> Optional[Any]:
    """The feeder ``node``'s chain holds now, or on a cluster the analytics
    follower's (see :attr:`Stack.analytics`)."""
    if cluster is None:
        return node.chain.analytics
    return next((replica.chain.analytics for replica in cluster.replicas
                 if replica.analytics_enabled), None)


def _collect_metrics(gateway: JsonRpcGateway, cluster: Optional[Any],
                     engine: Optional[Any], reg: MetricsRegistry) -> None:
    """The registry's one collector: sample every live part of a stack into
    ``reg``.  It is handed the parts, not the stack, so the registry -- the
    stack's child -- keeps the parts alive for whoever still scrapes it and
    never points back at the stack.  The chain is the one the gateway
    serves now (``Stack.replace_node`` re-points it)."""
    node = gateway.eth.node
    adapters.collect_rpc(reg, gateway.metrics)
    if cluster is None:
        adapters.collect_chain(reg, node.chain, "node")
    else:
        # Each replica's own chain (recover and resync replace it), not
        # ``ClusterNode.chain``: reading that pumps gossip.
        for replica in cluster.replicas:
            adapters.collect_chain(reg, replica.chain, replica.name)
            adapters.collect_fork(reg, replica.fork, replica.name)
        adapters.collect_gossip(reg, cluster.gossip)
    for name, cache in _caches(gateway.replies, engine).items():
        adapters.collect_cache(reg, name, cache)
    if engine is not None:
        adapters.collect_storage(reg, engine)
    feeder = _analytics(node, cluster)
    if feeder is not None:
        adapters.collect_analytics(reg, feeder)


def build_stack(
    *,
    clock: Optional[SimulatedClock] = None,
    storage: Optional[Any] = None,
    cluster: Optional[Any] = None,
    batch_verify: Optional[int] = None,
    chain_network: Optional[Any] = None,
    ipfs_network: Optional[Any] = None,
    observability: Any = False,
    analytics: bool = False,
) -> Stack:
    """Assemble one stack.

    ``storage`` is a ``StorageEngine`` / ``StorageConfig`` (the chain, or a
    cluster's first replica, write-ahead logs through it; a node recovers
    what it holds); ``cluster`` a ``ClusterConfig``; ``batch_verify`` a
    verify-worker count (single node only: replicas re-verify blocks on the
    scalar path); ``chain_network`` / ``ipfs_network`` simnet link models
    for the client->node and bitswap links; ``observability`` ``True`` or an
    ``Observability`` (whose registry the stack then shares); ``analytics``
    a columnar replica over the WAL.
    """
    if batch_verify is not None and batch_verify < 0:
        raise ConfigError(f"batch_verify needs >= 0 workers, got {batch_verify}")
    if batch_verify is not None and cluster is not None:
        raise ConfigError(
            "batch_verify is a single-node knob; replicas re-verify blocks on "
            "the scalar path, so it cannot be combined with cluster")
    if analytics and cluster is None and storage is None:
        raise ConfigError(
            "analytics needs storage: the replica feeds from the chain's WAL")
    clock = clock or SimulatedClock()
    engine = None
    if storage is not None:
        from repro.storage.engine import ensure_engine

        engine = ensure_engine(storage)
        if cluster is not None and engine.holds_history():
            # Replicas start at genesis, and only a single node recovers a
            # store; refused before any replica writes to it.
            raise StorageError(
                "this store already holds chain history, and a cluster opens "
                "only an empty store; give the cluster an empty store")
    chain_cluster = None
    if cluster is not None:
        from repro.cluster import ChainCluster, ClusterNode

        chain_cluster = ChainCluster(cluster, clock=clock, storage=engine,
                                     registry=default_registry())
        node: EthereumNode = ClusterNode(chain_cluster, network=chain_network)
    else:
        node = EthereumNode(backend=default_registry(), clock=clock,
                            network=chain_network, storage=engine,
                            batch_verify=batch_verify)
    swarm = Swarm(network=ipfs_network, clock=clock)
    gateway = JsonRpcGateway(node=node, swarm=swarm)
    if engine is not None:
        gateway.attach_storage(engine)
    registry = (observability.registry
                if isinstance(observability, Observability) else MetricsRegistry())
    stack = Stack(clock=clock, node=node, faucet=Faucet(node), swarm=swarm,
                  gateway=gateway, registry=registry, engine=engine,
                  cluster=chain_cluster, obs=ensure_observability(observability, registry, clock=clock))
    registry.register_collector(partial(_collect_metrics, gateway, chain_cluster, engine))
    if stack.obs is not None:
        if chain_cluster is not None:
            stack.obs.instrument_cluster(chain_cluster)
        else:
            stack.obs.attach_chain(node.chain)
        gateway.attach_obs(stack.obs, partial(_caches, gateway.replies, engine))
    if analytics:
        if chain_cluster is not None:
            chain_cluster.attach_follower_analytics()
        else:
            from repro.analytics import attach_analytics

            attach_analytics(node.chain, obs=stack.obs)
        gateway.attach_analytics(partial(_analytics, node, chain_cluster))
    return stack
