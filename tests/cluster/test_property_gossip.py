"""Property: random drop/partition schedules never corrupt finalized prefixes.

Hypothesis drives a 3-replica cluster through random interleavings of
transaction submissions, slot ticks, partitions and heals (with every
partition healed in fewer blocks than the finality depth -- the regime the
operator's handbook promises safety for).  Two invariants hold throughout:

1. **finalized-prefix agreement** -- any two alive replicas agree on every
   block buried at least ``finality_depth`` below *both* their heads;
2. **finality is forever** -- once any replica has buried height *h* by
   ``finality_depth`` blocks, the block hash it recorded at *h* never
   changes again, on any replica, for the rest of the run.

After the schedule every partition is healed and anti-entropy must bring
all replicas to one byte-identical head and state digest.
"""

from __future__ import annotations

from typing import Dict

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.chain.faucet import Faucet
from repro.chain.keys import KeyPair
from repro.cluster import ChainCluster, ClusterConfig, ClusterNode
from repro.contracts.registry import default_registry
from repro.errors import ClusterError
from repro.storage.snapshot import state_digest

REPLICAS = 3
FINALITY_DEPTH = 4
#: Ticks a partition may stay open: strictly fewer blocks than finality
#: depth can be minted per side, which is the handbook's safety condition.
MAX_PARTITION_TICKS = FINALITY_DEPTH - 2

#: One schedule step: a slot tick, a transfer submission, or a partition
#: toggle (the split chooses which replica sits alone).
OPS = st.lists(
    st.one_of(
        st.just(("tick",)),
        st.just(("tx",)),
        st.tuples(st.just("partition"), st.integers(0, REPLICAS - 1)),
        st.just(("heal",)),
    ),
    min_size=4, max_size=24,
)


def _check_finalized_prefixes(cluster: ChainCluster,
                              finalized: Dict[int, str]) -> None:
    """Assert both invariants; extend the global finalized ledger."""
    alive = cluster.alive_replicas()
    for replica in alive:
        horizon = replica.height - FINALITY_DEPTH
        for height in range(1, horizon + 1):
            block_hash = replica.chain.get_block(height).hash
            recorded = finalized.setdefault(height, block_hash)
            assert recorded == block_hash, (
                f"{replica.name} rewrote finalized height {height}: "
                f"{recorded} -> {block_hash}"
            )
    for a in alive:
        for b in alive:
            if b.index <= a.index:
                continue
            shared_horizon = min(a.height, b.height) - FINALITY_DEPTH
            for height in range(1, shared_horizon + 1):
                assert (a.chain.get_block(height).hash
                        == b.chain.get_block(height).hash), (
                    f"{a.name} and {b.name} conflict at finalized "
                    f"height {height}"
                )


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS, seed=st.integers(0, 2**16))
# Two transfers admitted on the lone side were never re-flooded after the
# heal, so the next leader held only the post-heal nonce-1 transfer and
# ``pending_nonce`` (state nonce + pending count) handed nonce 1 out again.
@example(ops=[("partition", 0), ("tx",), ("tx",), ("heal",), ("tx",),
              ("tick",), ("tx",), ("tx",)], seed=0)
def test_random_schedules_never_conflict_on_finalized_prefixes(ops, seed):
    """The satellite property: no two replicas ever disagree below finality."""
    cluster = ChainCluster(
        ClusterConfig(replicas=REPLICAS, network_profile="lan",
                      finality_depth=FINALITY_DEPTH,
                      fork_snapshot_interval=2, seed=seed),
        registry=default_registry(),
    )
    node = ClusterNode(cluster)
    faucet = Faucet(node)
    keys = [KeyPair.from_label(f"prop-{seed}-{i}") for i in range(2)]
    for key in keys:
        faucet.drip(key.address, 10**18)
    sink = KeyPair.from_label(f"prop-{seed}-sink").address

    finalized: Dict[int, str] = {}
    nonces = [0, 0]
    partition_ticks = 0
    partitioned = False
    for op in ops:
        if op[0] == "tick":
            cluster.tick(force=True)
            if partitioned:
                partition_ticks += 1
                if partition_ticks >= MAX_PARTITION_TICKS:
                    cluster.heal()
                    cluster.converge()
                    partitioned = False
        elif op[0] == "tx":
            which = (nonces[0] + nonces[1]) % 2
            try:
                node.sign_and_send(keys[which], to=sink, value=1)
                nonces[which] += 1
            except ClusterError:
                pass  # no eligible leader mid-partition edge; acceptable
        elif op[0] == "partition" and not partitioned:
            lone = op[1]
            rest = [i for i in range(REPLICAS) if i != lone]
            cluster.partition([[lone], rest])
            partitioned = True
            partition_ticks = 0
        elif op[0] == "heal" and partitioned:
            cluster.heal()
            cluster.converge()
            partitioned = False
        _check_finalized_prefixes(cluster, finalized)

    cluster.heal()
    assert cluster.converge(), "post-schedule anti-entropy did not converge"
    _check_finalized_prefixes(cluster, finalized)
    heads = {r.head_hash for r in cluster.alive_replicas()}
    digests = {state_digest(r.chain.state) for r in cluster.alive_replicas()}
    assert len(heads) == 1 and len(digests) == 1
