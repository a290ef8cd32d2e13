"""Replication-cost benchmarks: single-node vs N-replica ingest.

Replication is not free -- every transaction is flooded to N replicas
(each re-validating the signature) and every block is re-executed N times.
These benches put a number on that tax so the scaling story stays honest:
the cluster buys read fan-out, fault tolerance and geo placement at a
measured multiple of single-node ingest cost.

Non-gated (not part of the CI perf baseline): replication cost scales with
the replica count knob, so a fixed threshold would be meaningless.
"""

import pytest

from repro.cluster import ChainCluster, ClusterConfig, ClusterNode
from repro.contracts import default_registry
from repro.loadgen.driver import presigned_transfers

from .conftest import mean_seconds, print_table

# Five-replica ingest re-executes every block on every replica; close
# enough to the CI-wide --timeout=120 budget to need headroom.
pytestmark = pytest.mark.timeout(300)

NUM_TXS = 200
NUM_SENDERS = 10


def _ingest_single(label: str):
    """Submit + mine the shared presigned workload on one node."""
    node, transactions = presigned_transfers(NUM_TXS, NUM_SENDERS, label)
    for tx in transactions:
        node.chain.submit_transaction(tx)
    node.chain.produce_blocks_until_empty(max_blocks=1 + NUM_TXS // 10)


def _ingest_cluster(label: str, replicas: int):
    """Submit + mine the shared presigned workload on an N-replica cluster."""
    cluster = ChainCluster(ClusterConfig(replicas=replicas),
                           registry=default_registry())
    node, transactions = presigned_transfers(
        NUM_TXS, NUM_SENDERS, label, node=ClusterNode(cluster))
    for tx in transactions:
        node.send_transaction(tx)
    for _ in range(1 + NUM_TXS // 10):
        if len(node.chain.mempool) == 0:
            break
        cluster.tick()
    assert len(node.chain.mempool) == 0
    assert cluster.converge()


def _tps(benchmark, target, *args) -> float:
    return NUM_TXS / mean_seconds(benchmark, target, args=args, rounds=3, iterations=1)


def test_bench_ingest_single_node(benchmark):
    """Baseline: the PR-4 single-node ingest path."""
    tps = _tps(benchmark, _ingest_single, "bench-cl-single")
    print_table("cluster ingest", [("single-node", f"{tps:,.1f} tx/s")],
                ["stack", "throughput"])


def test_bench_ingest_three_replicas(benchmark):
    """Replicated: 3 replicas, flood + rotation + 3x re-execution."""
    tps = _tps(benchmark, _ingest_cluster, "bench-cl-three", 3)
    print_table("cluster ingest", [("3 replicas", f"{tps:,.1f} tx/s")],
                ["stack", "throughput"])


def test_bench_ingest_five_replicas(benchmark):
    """Replicated: 5 replicas -- the replication tax at wider fan-out."""
    tps = _tps(benchmark, _ingest_cluster, "bench-cl-five", 5)
    print_table("cluster ingest", [("5 replicas", f"{tps:,.1f} tx/s")],
                ["stack", "throughput"])
