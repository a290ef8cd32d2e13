"""Multi-node chain replication: gossip, leader rotation, fork choice.

``repro.cluster`` scales the single ``EthereumNode`` ingest point into N
full chain replicas connected by ``repro.simnet`` network links:

* :class:`ClusterConfig` -- declarative topology (replica count, link
  profile or geo regions, rollback-snapshot cadence);
* :class:`ChainCluster` -- the control plane: round-robin leader rotation
  on the simulated slot clock, per-partition-side production, faucet-mint
  fan-out, crash/recover lifecycle and anti-entropy convergence;
* :class:`GossipLayer` -- transaction flooding plus block announce/fetch
  over per-link latency/drop models;
* :class:`Replica` -- one full chain copy with its own durable store,
  recoverable from its WAL and resyncable from a peer;
* :class:`ForkChoice` -- a replica's side blocks, rollback snapshots and
  reorgs, driving its unchanged ``Blockchain`` by composition;
* :class:`ClusterNode` -- an ``EthereumNode``-shaped facade that routes
  writes to the current leader and load-balances caught-up reads, so the
  JSON-RPC gateway, wallets and the load generator can hold a cluster
  without knowing it.

The operator-facing walkthrough (how the pieces behave under partitions,
leader crashes and geo latency) lives in ``docs/architecture.md`` under
"Cluster operations"; scenario usage lives in ``docs/simnet.md``.
"""

from repro.cluster.cluster import ChainCluster, build_cluster_network
from repro.cluster.config import ClusterConfig
from repro.cluster.forkchoice import ForkChoice
from repro.cluster.gossip import GossipLayer, GossipStats
from repro.cluster.node import ClusterNode
from repro.cluster.replica import Replica, proposer_address

__all__ = [
    "ChainCluster",
    "ClusterConfig",
    "ClusterNode",
    "ForkChoice",
    "GossipLayer",
    "GossipStats",
    "Replica",
    "build_cluster_network",
    "proposer_address",
]
