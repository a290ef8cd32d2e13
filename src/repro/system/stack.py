"""The one place a serving stack is assembled, and the one place it is closed.

Every entry point (``repro serve``, ``simulate``, ``loadgen``, ``run``,
``cluster status``, the RPC reference) needs some subset of the paper's one
deployment (Fig. 2).  :func:`build_stack` owns *what hangs off a node and in
what order*::

    clock -> engine? -> cluster | node(batch_verify) -> faucet -> swarm
          -> rate limiter? -> gateway -> attach_storage? -> registry
          -> obs? -> analytics?

The registry is always there and is the only one: :func:`build_stack`
registers one collector on it, :meth:`Stack.collect_metrics`, which samples
whatever the stack holds *when scraped*.  A restarted node, a recovered
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
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.chain.account import checksum_cache
from repro.chain.chain import ChainConfig
from repro.chain.faucet import Faucet
from repro.chain.keys import inverse_cache
from repro.chain.node import EthereumNode
from repro.contracts.registry import default_registry
from repro.errors import ConfigError
from repro.ipfs.swarm import Swarm
from repro.obs import MetricsRegistry, Observability, adapters, ensure_observability
from repro.rpc.gateway import JsonRpcGateway
from repro.rpc.middleware import TokenBucketRateLimiter
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
    rate_limiter: Optional[TokenBucketRateLimiter] = None

    # -- what the stack holds right now ------------------------------------------

    @cached_property
    def rpc(self) -> MarketplaceClient:
        """The in-process SDK over ``gateway``, built on first use: a server
        answers sockets and never loads the client."""
        from repro.rpc.client import MarketplaceClient

        return MarketplaceClient(self.gateway)

    def caches(self) -> Dict[str, Any]:
        """Every ``LRUCache`` by its ``cache=`` label: the two process-wide
        chain caches and the engine's read cache."""
        caches = {"address_checksum": checksum_cache(),
                  "schnorr_inverse": inverse_cache()}
        if self.engine is not None:
            caches["storage"] = self.engine.cache
        return caches

    @property
    def analytics(self) -> Optional[Any]:
        """The analytics feeder serving ``analytics_*`` now, if one is attached.

        Resolved through the chain that holds it -- the analytics follower's
        on a cluster -- because a restart or a replica's recovery replaces
        the feeder along with the chain.
        """
        if self.cluster is None:
            return self.node.chain.analytics
        return next((replica.chain.analytics for replica in self.cluster.replicas
                     if replica.analytics_enabled), None)

    def collect_metrics(self, reg: MetricsRegistry) -> None:
        """The registry's one collector: sample every live part into ``reg``."""
        adapters.collect_rpc(reg, self.gateway.metrics)
        if self.cluster is None:
            adapters.collect_chain(reg, self.node.chain, "node")
        else:
            # Each replica's own chain (recover and resync replace it), not
            # ``ClusterNode.chain``: reading that pumps gossip.
            for replica in self.cluster.replicas:
                adapters.collect_chain(reg, replica.chain, replica.name)
            adapters.collect_gossip(reg, self.cluster.gossip)
        for name, cache in self.caches().items():
            adapters.collect_cache(reg, name, cache)
        if self.engine is not None:
            adapters.collect_storage(reg, self.engine)
        feeder = self.analytics
        if feeder is not None:
            adapters.collect_analytics(reg, feeder)

    # -- lifecycle -----------------------------------------------------------------

    def replace_node(self, recovered: EthereumNode) -> None:
        """Swap in a node recovered from storage (the simulated ``kill -9``).

        What held the dead node is re-pointed -- the gateway's ``eth_*``
        namespace, the faucet, the facade's chain hooks -- and the analytics
        replica, which died with the node's memory, is rebuilt: a fresh
        feeder backfills from the recovered WAL and inherits the lifetime
        counters.  Metrics and ``analytics_*`` read through the stack, so
        they follow without being told.
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


def build_stack(
    *,
    clock: Optional[SimulatedClock] = None,
    storage: Optional[Any] = None,
    cluster: Optional[Any] = None,
    batch_verify: Optional[int] = None,
    chain_network: Optional[Any] = None,
    ipfs_network: Optional[Any] = None,
    rate_limit: Optional[float] = None,
    rate_burst: Optional[float] = None,
    observability: Any = False,
    analytics: bool = False,
) -> Stack:
    """Assemble one stack.

    ``storage`` is a ``StorageEngine`` / ``StorageConfig`` (the chain, or a
    cluster's first replica, write-ahead logs through it); ``cluster`` a
    ``ClusterConfig``; ``batch_verify`` a verify-worker count (single node
    only: replicas re-verify blocks on the scalar path); ``chain_network`` /
    ``ipfs_network`` simnet link models for the client->node and bitswap
    links; ``rate_limit`` / ``rate_burst`` a gateway token bucket on the
    simulated clock; ``observability`` ``True`` or an ``Observability`` (whose
    registry the stack then shares); ``analytics`` a columnar replica over the
    WAL.
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
    chain_cluster = None
    if cluster is not None:
        from repro.cluster import ChainCluster, ClusterNode

        chain_cluster = ChainCluster(cluster, clock=clock, storage=engine,
                                     registry=default_registry())
        node: EthereumNode = ClusterNode(chain_cluster, network=chain_network)
    else:
        node = EthereumNode(config=ChainConfig(), backend=default_registry(),
                            clock=clock, network=chain_network, storage=engine,
                            batch_verify=batch_verify)
    swarm = Swarm(network=ipfs_network, clock=clock)
    rate_limiter = None
    if rate_limit is not None:
        rate_limiter = TokenBucketRateLimiter(
            rate=rate_limit, capacity=rate_burst, time_fn=lambda: clock.now)
    gateway = JsonRpcGateway(
        node=node, swarm=swarm,
        middleware=[rate_limiter] if rate_limiter is not None else [])
    if engine is not None:
        gateway.attach_storage(engine)
    registry = (observability.registry
                if isinstance(observability, Observability) else MetricsRegistry())
    stack = Stack(clock=clock, node=node, faucet=Faucet(node), swarm=swarm,
                  gateway=gateway, registry=registry, engine=engine,
                  cluster=chain_cluster, rate_limiter=rate_limiter,
                  obs=ensure_observability(observability, registry, clock=clock))
    registry.register_collector(stack.collect_metrics)
    if stack.obs is not None:
        if chain_cluster is not None:
            stack.obs.instrument_cluster(chain_cluster)
        else:
            stack.obs.attach_chain(node.chain)
        gateway.attach_obs(stack.obs, stack.caches)
    if analytics:
        if chain_cluster is not None:
            chain_cluster.attach_follower_analytics()
        else:
            from repro.analytics import attach_analytics

            attach_analytics(node.chain, obs=stack.obs)
        gateway.attach_analytics(lambda: stack.analytics)
    return stack
