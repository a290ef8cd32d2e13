"""Property-based equivalence for deferred, pipelined signature verification.

The adversarial pin for ``repro.batchverify``.  The engine has no
arithmetic of its own, so there are two things to hold.  First, what a
verify worker returns for a chunk of hostile signatures -- forgeries,
bit-flipped responses and challenges, swapped public keys, duplicated
items, zero / order-sized / above-order exponents -- equals the scalar
``verify_signature`` verdicts *exactly*, position by position, through the
pool's wire format.  Second, whole workloads (with forged submissions
interleaved) run through deferred admission and pipelined block production
give a chain fingerprint-identical to the serial path -- across a
fork-choice reorg and a kill -9 WAL recovery too.
"""

from __future__ import annotations

import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.keys import Signature, verify_signature
from repro.chain.node import EthereumNode
from repro.contracts.registry import default_registry
from repro.parallel.verify import _verify_jobs
from repro.storage import StorageConfig, recover_node, state_digest
from repro.utils.clock import SimulatedClock

from ._workload import (
    ITEM_SPECS,
    OPS,
    RIVAL_VALIDATOR,
    VALIDATOR,
    apply_op,
    build_item,
    fingerprint,
    fresh_chain,
    replay_mints,
    run_workload,
    seed_workload,
)


def worker_verdicts(items):
    """The items' verdicts as a verify worker computes them for one chunk."""
    return _verify_jobs([
        (signature.to_dict(), message, address)
        for signature, message, address in items
    ])


def on_the_wire(item) -> bool:
    """Whether the pool's wire format can carry the item's signature.

    ``Signature.to_dict`` encodes unsigned big-endian bytes, so a negative
    component never reaches a worker; the engine verifies such a
    transaction inline (``tests/batchverify/test_engine.py``).
    """
    signature = item[0]
    return min(signature.e, signature.s, signature.public_key) >= 0


class TestBatchScalarVerdictEquivalence:
    @given(specs=ITEM_SPECS, duplicate=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_batch_verdicts_equal_scalar_verdicts(self, specs, duplicate):
        items = [item for item in map(build_item, specs) if on_the_wire(item)]
        if duplicate and items:
            items.append(items[0])
        assert worker_verdicts(items) == [
            verify_signature(signature, message, address)
            for signature, message, address in items
        ]

    @given(specs=ITEM_SPECS)
    @settings(max_examples=15, deadline=None)
    def test_exactly_one_forgery_is_attributed(self, specs):
        # However large the honest chunk, one forged response must be
        # rejected at *its* position and nowhere else.
        items = [build_item((sender, message, "valid"))
                 for sender, message, _ in specs]
        position = len(items) // 2
        signature, message, address = items[position]
        items[position] = (
            Signature(e=signature.e, s=signature.s ^ 2,
                      public_key=signature.public_key), message, address)
        expected = [True] * len(items)
        expected[position] = False
        assert worker_verdicts(items) == expected


# -- deferred, pipelined production vs the serial chain ---------------------


class TestBatchProductionEquivalence:
    @given(ops=OPS)
    @settings(max_examples=12, deadline=None)
    def test_inline_batches_match_serial(self, ops):
        assert fingerprint(run_workload(ops, batch_verify=0)) == \
            fingerprint(run_workload(ops))

    @given(ops=OPS)
    @settings(max_examples=5, deadline=None)
    def test_pipelined_workers_match_serial(self, ops):
        assert fingerprint(run_workload(ops, batch_verify=2)) == \
            fingerprint(run_workload(ops))


class TestBatchEquivalenceAcrossReorg:
    @given(ops=OPS)
    @settings(max_examples=5, deadline=None)
    def test_follower_reorgs_cleanly_over_batch_blocks(self, ops):
        # A batch-verified leader produces blocks; a scalar fork-choice
        # follower re-executes them (replay verifies on the authoritative
        # path) and must land on the identical state -- then survive being
        # reorged onto a rival branch.  The seed transfer guarantees the
        # leader is past genesis, so there is always a tip to abandon.
        ops = [("transfer", 0, 1, 7), ("block",)] + list(ops)
        leader = run_workload(ops, batch_verify=0)
        follower = fresh_chain()
        follower.enable_fork_choice(default_registry(), snapshot_interval=2)
        replay_mints(follower, ops)
        for number in range(1, leader.height + 1):
            assert follower.apply_block(
                leader.get_block(number).to_record()) == "extended"
        assert state_digest(follower.state) == state_digest(leader.state)

        rival = fresh_chain(RIVAL_VALIDATOR,
                            start_time=leader.latest_block.timestamp)
        rival.enable_fork_choice(default_registry(), snapshot_interval=2)
        replay_mints(rival, ops)
        for number in range(1, leader.height):
            assert rival.apply_block(
                leader.get_block(number).to_record()) == "extended"
        statuses = [follower.apply_block(rival.produce_block().to_record())
                    for _ in range(2)]
        assert "reorged" in statuses
        assert follower.latest_block.hash == rival.latest_block.hash
        assert state_digest(follower.state) == state_digest(rival.state)


class TestBatchEquivalenceAcrossRecovery:
    @given(ops=OPS)
    @settings(max_examples=3, deadline=None)
    def test_kill9_recovery_of_a_batch_node(self, ops):
        # A batch-verified node persists through a WAL and "dies" with a
        # *forged* transaction still pending (admitted by deferred
        # admission, recorded in the WAL, not yet settled).  Recovery
        # replays on the scalar path, so it must drop the forgery and land
        # on the identical head/state.
        directory = tempfile.mkdtemp(prefix="bv-prop-store-")
        try:
            node = EthereumNode(
                backend=default_registry(),
                clock=SimulatedClock(start_time=0.0),
                validators=[VALIDATOR],
                storage=StorageConfig(backend="log", directory=directory,
                                      snapshot_interval_blocks=3),
                batch_verify=0,
            )
            chain = node.chain
            seed_workload(chain)
            for op in ops:
                apply_op(chain, op)
            chain.produce_blocks_until_empty()
            # The dying gasp: a forged pending transaction in the WAL.
            apply_op(chain, ("forge", 0, 999_983))
            truth = {
                "head": chain.latest_block.hash,
                "height": chain.height,
                "digest": state_digest(chain.state),
            }
            chain.batchverify.close()
            node.storage.close()

            revived = recover_node(
                StorageConfig(backend="log", directory=directory),
                backend=default_registry())
            try:
                assert revived.chain.height == truth["height"]
                assert revived.chain.latest_block.hash == truth["head"]
                assert state_digest(revived.chain.state) == truth["digest"]
                assert revived.chain.dropped_pending_on_recovery >= 1
            finally:
                revived.storage.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
