"""The one place a serving stack is assembled, and the one place it is closed.

Every entry point (``repro serve``, ``simulate``, ``loadgen``, ``run``,
``cluster status``, the RPC reference) needs some subset of the paper's one
deployment (Fig. 2).  :func:`build_stack` owns *what hangs off a node and in
what order*::

    clock -> engine? -> cluster | node(batch_verify) -> faucet -> swarm
          -> rate limiter? -> gateway -> attach_storage? -> obs? -> analytics?

Callers choose the subset by what they pass and nothing is inferred: an
engine exists, and ``storage_stats`` is mounted, exactly when ``storage`` is
given (``docs/architecture.md``, "How a stack is assembled", tabulates who
passes what).  ``repro.cluster``, ``repro.analytics`` and ``repro.storage``
are imported only when asked for: ``repro serve`` boots through here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.chain.chain import ChainConfig
from repro.chain.faucet import Faucet
from repro.chain.node import EthereumNode
from repro.contracts.registry import default_registry
from repro.errors import ConfigError
from repro.ipfs.swarm import Swarm
from repro.obs import Observability, ensure_observability
from repro.rpc.client import MarketplaceClient
from repro.rpc.gateway import JsonRpcGateway
from repro.rpc.middleware import TokenBucketRateLimiter
from repro.utils.clock import SimulatedClock


@dataclass
class Stack:
    """Every live object of one deployment, wired by :func:`build_stack`."""

    clock: SimulatedClock
    node: EthereumNode
    faucet: Faucet
    swarm: Swarm
    gateway: JsonRpcGateway
    rpc: MarketplaceClient
    #: The storage engine the caller passed (``None``: the chain keeps no WAL,
    #: or -- on a cluster -- each replica keeps a private in-memory one).
    engine: Optional[Any] = None
    #: The ``ChainCluster`` behind ``node`` when it is a ``ClusterNode``.
    cluster: Optional[Any] = None
    obs: Optional[Observability] = None
    rate_limiter: Optional[TokenBucketRateLimiter] = None
    #: The analytics feeder mounted on the gateway, if any.
    analytics: Optional[Any] = None

    def _attach_analytics(self) -> None:
        """Attach a columnar replica (follower-side on a cluster) and mount it."""
        if self.cluster is not None:
            self.analytics = self.cluster.attach_follower_analytics()
        else:
            from repro.analytics import attach_analytics

            self.analytics = attach_analytics(self.node.chain, obs=self.obs)
        self.gateway.attach_analytics(self.analytics)
        if self.obs is not None:
            self.obs.instrument_analytics(self.analytics)

    def replace_node(self, recovered: EthereumNode) -> None:
        """Swap in a node recovered from storage (the simulated ``kill -9``).

        Everything that held the dead node is re-pointed: the gateway's
        ``eth_*`` namespace, the faucet, the facade's chain hooks, and the
        analytics replica -- which died with the node's memory, so a fresh
        feeder backfills from the recovered WAL and inherits the lifetime
        counters.
        """
        self.node = recovered
        self.gateway.serve_node(recovered)
        self.faucet.node = recovered
        if self.obs is not None:
            self.obs.instrument_node(recovered)
        if self.analytics is not None:
            dead = self.analytics
            self._attach_analytics()
            self.analytics.queries = dead.queries
            self.analytics.rollbacks += dead.rollbacks

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
    simulated clock; ``observability`` ``True`` or an ``Observability``;
    ``analytics`` a columnar replica over the WAL.
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
    stack = Stack(clock=clock, node=node, faucet=Faucet(node), swarm=swarm,
                  gateway=gateway, rpc=MarketplaceClient(gateway), engine=engine,
                  cluster=chain_cluster, rate_limiter=rate_limiter,
                  obs=ensure_observability(observability, clock=clock))
    if stack.obs is not None:
        if chain_cluster is not None:
            stack.obs.instrument_cluster(chain_cluster)
        else:
            stack.obs.instrument_node(node)
        gateway.attach_obs(stack.obs)
    if analytics:
        stack._attach_analytics()
    return stack
