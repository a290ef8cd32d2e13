"""Property-based serial/parallel equivalence (ISSUE: the tentpole pin).

Hypothesis generates random blocks -- conflicting senders, same-sender
nonce chains, shared-contract writes, view calls, failing calls, mints and
contract creations -- and executes the *identical* submitted workload on a
serial seed chain and on wave-parallel chains at 1, 2 and 8 workers.  The
results must be byte-identical: state digest, every block hash (which
commits the transactions root AND the receipts root), every receipt dict,
every log, every gas figure.  Two more properties extend the guarantee
across a fork-choice reorg that rolls parallel-produced blocks back, and
across a kill -9 crash/recovery cycle of a parallel node's WAL.
"""

from __future__ import annotations

import shutil
import tempfile

from hypothesis import given, settings

from repro.chain.node import EthereumNode
from repro.contracts.registry import default_registry
from repro.storage import StorageConfig, recover_node, state_digest
from repro.utils.clock import SimulatedClock

from ._workload import (
    OPS,
    RIVAL_VALIDATOR,
    VALIDATOR,
    apply_op,
    fingerprint,
    fresh_chain,
    replay_mints,
    run_workload,
    seed_workload,
)

# -- the properties ---------------------------------------------------------


class TestSerialParallelEquivalence:
    @given(ops=OPS)
    @settings(max_examples=60, deadline=None)
    def test_one_worker_matches_serial(self, ops):
        assert fingerprint(run_workload(ops, parallel=1)) == \
            fingerprint(run_workload(ops))

    @given(ops=OPS)
    @settings(max_examples=60, deadline=None)
    def test_two_workers_match_serial(self, ops):
        assert fingerprint(run_workload(ops, parallel=2)) == \
            fingerprint(run_workload(ops))

    @given(ops=OPS)
    @settings(max_examples=60, deadline=None)
    def test_eight_workers_match_serial(self, ops):
        assert fingerprint(run_workload(ops, parallel=8)) == \
            fingerprint(run_workload(ops))


class TestEquivalenceAcrossReorg:
    @given(ops=OPS)
    @settings(max_examples=15, deadline=None)
    def test_follower_reorgs_cleanly_over_parallel_blocks(self, ops):
        # A parallel leader produces blocks; a serial fork-choice follower
        # re-executes and must land on the identical state.  A rival branch
        # forking off the leader's last block and growing two longer then
        # forces the follower to roll a parallel-produced block back -- the
        # rollback snapshots were taken around blocks built by the wave
        # executor.
        leader = run_workload(ops, parallel=4)
        follower = fresh_chain()
        follower.enable_fork_choice(default_registry(), snapshot_interval=2)
        replay_mints(follower, ops)
        for number in range(1, leader.height + 1):
            status = follower.apply_block(leader.get_block(number).to_record())
            assert status == "extended"
        assert state_digest(follower.state) == state_digest(leader.state)

        # The rival shares every leader block but the last, then outgrows
        # the leader with two empty blocks of its own.
        rival = fresh_chain(RIVAL_VALIDATOR,
                            start_time=leader.latest_block.timestamp)
        rival.enable_fork_choice(default_registry(), snapshot_interval=2)
        replay_mints(rival, ops)
        for number in range(1, leader.height):
            assert rival.apply_block(
                leader.get_block(number).to_record()) == "extended"
        rival_blocks = [rival.produce_block(), rival.produce_block()]
        statuses = [follower.apply_block(block.to_record())
                    for block in rival_blocks]
        # The exact classification of the first rival block depends on the
        # fork-choice tie-break at equal height; what matters is that the
        # follower abandoned its parallel-produced tip for the rival branch.
        assert "reorged" in statuses
        assert follower.latest_block.hash == rival.latest_block.hash
        assert state_digest(follower.state) == state_digest(rival.state)


class TestEquivalenceAcrossRecovery:
    @given(ops=OPS)
    @settings(max_examples=8, deadline=None)
    def test_kill9_recovery_of_a_parallel_node(self, ops):
        # A parallel node persists through a WAL; the process "dies" (the
        # in-memory world is discarded) and a recovered node must reach the
        # identical head hash and state digest -- recovery replays through
        # the serial loop, so this is also the leader/follower agreement
        # pin in crash-recovery form.
        directory = tempfile.mkdtemp(prefix="par-prop-store-")
        try:
            node = EthereumNode(
                backend=default_registry(),
                clock=SimulatedClock(start_time=0.0),
                validators=[VALIDATOR],
                storage=StorageConfig(backend="log", directory=directory,
                                      snapshot_interval_blocks=3),
                parallel_execution=4,
            )
            chain = node.chain
            seed_workload(chain)
            for op in ops:
                apply_op(chain, op)
            chain.produce_blocks_until_empty()
            truth = {
                "head": chain.latest_block.hash,
                "height": chain.height,
                "digest": state_digest(chain.state),
            }
            chain.parallel.close()
            node.storage.close()

            revived = recover_node(
                StorageConfig(backend="log", directory=directory),
                backend=default_registry())
            try:
                assert revived.chain.height == truth["height"]
                assert revived.chain.latest_block.hash == truth["head"]
                assert state_digest(revived.chain.state) == truth["digest"]
            finally:
                revived.storage.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
