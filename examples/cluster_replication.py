"""Walkthrough: multi-node chain replication (``repro.cluster``).

Builds a 4-replica cluster, drives funded transfers through leader
rotation and gossip, splits the gossip network into two producing sides,
heals it, and watches longest-chain fork choice converge every replica to
the byte-identical head.  Finishes by crashing the leader and recovering
it from its own write-ahead log.

Run with::

    PYTHONPATH=src python examples/cluster_replication.py
"""

from __future__ import annotations

from repro.chain.faucet import Faucet
from repro.chain.keys import KeyPair
from repro.cluster import ChainCluster, ClusterConfig, ClusterNode
from repro.contracts.registry import default_registry
from repro.storage.snapshot import state_digest
from repro.utils.units import ether_to_wei


def heads(cluster: ChainCluster) -> str:
    """One line of per-replica heads (height + hash prefix)."""
    return ", ".join(
        f"{replica.name}@{replica.height}:{replica.head_hash[:10]}"
        + ("" if replica.alive else " (down)")
        for replica in cluster.replicas
    )


def main() -> None:
    """Drive the partition/heal and crash/recover walkthrough."""
    cluster = ChainCluster(
        ClusterConfig(replicas=4, network_profile="lan", seed=7),
        registry=default_registry(),
    )
    node = ClusterNode(cluster)
    faucet = Faucet(node)
    keys = [KeyPair.from_label(f"example-{i}") for i in range(4)]
    for keypair in keys:
        faucet.drip(keypair.address, ether_to_wei(1))
    sink = KeyPair.from_label("example-sink").address

    print("== replication through leader rotation ==")
    for index in range(4):
        node.sign_and_send(keys[index], to=sink, value=1_000)
        cluster.tick()
    cluster.converge()
    print(heads(cluster))
    print(f"producers: {[r.blocks_produced for r in cluster.replicas]} "
          f"(round-robin)\n")

    print("== partition: two sides keep producing ==")
    cluster.partition([[0, 1], [2, 3]])
    for index in range(3):
        node.sign_and_send(keys[index % 4], to=sink, value=500)
        cluster.tick(force=True)
    print(heads(cluster))
    print(f"diverged: {not cluster.heads_identical()}\n")

    print("== heal: fork choice converges every replica ==")
    cluster.heal()
    cluster.converge()
    print(heads(cluster))
    reorgs = sum(r.fork.stats()["reorgs"] for r in cluster.replicas)
    digests = {state_digest(r.chain.state) for r in cluster.replicas}
    print(f"converged: {cluster.heads_identical()} "
          f"({reorgs} reorg(s); {len(digests)} distinct state digest(s))\n")

    print("== leader crash + WAL recovery ==")
    victim = cluster.leader_replica()
    cluster.crash_replica(victim.index)
    print(f"killed {victim.name}; failover keeps producing...")
    node.sign_and_send(keys[0], to=sink, value=250)
    cluster.tick()
    cluster.recover_replica(victim.index)
    cluster.converge()
    print(heads(cluster))
    print(f"recovered from WAL: recoveries={victim.recoveries}, "
          f"converged={cluster.heads_identical()}")


if __name__ == "__main__":
    main()
