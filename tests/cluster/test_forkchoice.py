"""Replica-side fork choice: side-chain tracking, reorgs, state rollback."""

from __future__ import annotations

import pytest

from repro.chain.account import Address
from repro.chain.chain import Blockchain, ChainConfig
from repro.chain.keys import KeyPair
from repro.chain.transaction import Transaction
from repro.cluster.forkchoice import ForkChoice
from repro.contracts.registry import default_registry
from repro.errors import BlockValidationError
from repro.storage.snapshot import state_digest
from repro.utils.clock import SimulatedClock


def make_chain(validator_label: str = "val-a", clock=None,
               snapshot_interval: int = 2) -> ForkChoice:
    chain = Blockchain(
        config=ChainConfig(),
        backend=default_registry(),
        clock=clock or SimulatedClock(),
        validators=[Address(KeyPair.from_label(validator_label).address)],
        genesis_timestamp=0.0,
    )
    return ForkChoice(chain, default_registry(),
                      snapshot_interval=snapshot_interval)


def fund(fork: ForkChoice, keypair: KeyPair, amount: int = 10**18) -> None:
    fork.mint(keypair.address, amount)


def transfer(fork: ForkChoice, keypair: KeyPair, nonce: int,
             value: int = 1_000) -> str:
    tx = Transaction(
        sender=Address(keypair.address),
        to=Address(KeyPair.from_label("fc-sink").address),
        value=value, nonce=nonce, gas_limit=21_000, gas_price=10**9,
    )
    tx.sign(keypair)
    return fork.chain.submit_transaction(tx)


class TestForkTracking:
    def test_seed_chains_have_fork_choice_disabled(self):
        chain = Blockchain()
        for name in ("fork_choice_enabled", "fork_stats", "apply_block",
                     "reorg_to", "_fork"):
            assert not hasattr(chain, name)
        assert ForkChoice(chain, default_registry()).stats() == {
            "reorgs": 0, "max_reorg_depth": 0, "side_blocks_seen": 0,
            "side_blocks_held": 0}

    def test_apply_block_extends_the_tip(self):
        a = make_chain("val-a")
        b = make_chain("val-b")
        key = KeyPair.from_label("fc-alice")
        for chain in (a, b):
            fund(chain, key)
        transfer(a, key, nonce=0)
        block = a.produce_block()
        assert b.apply_block(block.to_record()) == "extended"
        assert b.chain.latest_block.hash == a.chain.latest_block.hash
        assert state_digest(b.chain.state) == state_digest(a.chain.state)

    def test_duplicates_and_orphans_are_classified(self):
        a = make_chain("val-a")
        b = make_chain("val-b")
        blocks = [a.produce_block() for _ in range(3)]
        assert b.apply_block(blocks[2].to_record()) == "orphan"
        assert b.apply_block(blocks[0].to_record()) == "extended"
        assert b.apply_block(blocks[0].to_record()) == "known"

    def test_shorter_side_branch_is_tracked_not_adopted(self):
        a = make_chain("val-a")
        b = make_chain("val-b")
        shared = a.produce_block()
        b.apply_block(shared.to_record())
        a.produce_block()
        a.produce_block()                      # a is at height 3
        fork = b.produce_block()               # b forks at height 2
        assert a.apply_block(fork.to_record()) == "side"
        assert a.chain.height == 3
        assert a.stats()["side_blocks_held"] == 1

    def test_longer_branch_triggers_reorg_with_identical_state(self):
        clock = SimulatedClock()
        a = make_chain("val-a", clock=clock)
        b = make_chain("val-b", clock=clock)
        key = KeyPair.from_label("fc-bob")
        for chain in (a, b):
            fund(chain, key)
        shared = a.produce_block()
        b.apply_block(shared.to_record())

        # Partitioned, a mines one block with a tx and b one without it.  A
        # tie on height goes to the lower hash, so the replica whose block
        # lost it mines once more: the winner then holds that branch's first
        # block as a side block, and its second, longer, forces the reorg.
        transfer(a, key, nonce=0)
        a_tip, b_tip = a.produce_block(), b.produce_block()
        winner, loser = (a, b) if a_tip.hash < b_tip.hash else (b, a)
        branch = [loser.chain.latest_block, loser.produce_block()]

        statuses = [winner.apply_block(block.to_record()) for block in branch]
        assert statuses == ["side", "reorged"]
        assert winner.chain.latest_block.hash == loser.chain.latest_block.hash
        assert winner.stats()["reorgs"] == 1
        assert state_digest(winner.chain.state) == state_digest(loser.chain.state)

    def test_reorg_requeues_abandoned_transactions(self):
        clock = SimulatedClock()
        a = make_chain("val-a", clock=clock)
        b = make_chain("val-b", clock=clock)
        key = KeyPair.from_label("fc-carol")
        for chain in (a, b):
            fund(chain, key)
        tx_hash = transfer(a, key, nonce=0)
        a.produce_block()                      # includes the tx on a only
        assert a.chain.has_receipt(tx_hash)
        for block in (b.produce_block(), b.produce_block()):
            a.apply_block(block.to_record())
        # The reorg abandoned the including block: tx is pending again.
        assert not a.chain.has_receipt(tx_hash)
        assert tx_hash in a.chain.mempool
        a.produce_block()
        assert a.chain.has_receipt(tx_hash)

    def test_equal_length_tie_breaks_to_smaller_head_hash(self):
        clock = SimulatedClock()
        a = make_chain("val-a", clock=clock)
        b = make_chain("val-b", clock=clock)
        block_a = a.produce_block()
        block_b = b.produce_block()
        assert block_a.hash != block_b.hash
        status_a = a.apply_block(block_b.to_record())
        status_b = b.apply_block(block_a.to_record())
        winner = min(block_a.hash, block_b.hash)
        assert a.chain.latest_block.hash == winner
        assert b.chain.latest_block.hash == winner
        # Exactly one side reorged; the other kept its head.
        assert sorted([status_a, status_b]) == ["reorged", "side"]

    def test_reorg_survives_post_fork_mints(self):
        """Mints after the fork point are credits that outlive the reorg."""
        clock = SimulatedClock()
        a = make_chain("val-a", clock=clock)
        b = make_chain("val-b", clock=clock)
        key = KeyPair.from_label("fc-dave")
        shared = a.produce_block()
        b.apply_block(shared.to_record())
        a.produce_block()
        # Mint lands on a *after* the soon-to-be-abandoned block.
        fund(a, key, 777)
        fund(b, key, 777)
        for block in (b.produce_block(), b.produce_block()):
            a.apply_block(block.to_record())
        assert a.chain.latest_block.hash == b.chain.latest_block.hash
        assert a.chain.state.balance_of(key.address) == 777
        assert state_digest(a.chain.state) == state_digest(b.chain.state)

    def test_deep_reorg_across_snapshot_boundaries(self):
        clock = SimulatedClock()
        a = make_chain("val-a", clock=clock, snapshot_interval=3)
        b = make_chain("val-b", clock=clock, snapshot_interval=3)
        key = KeyPair.from_label("fc-erin")
        for chain in (a, b):
            fund(chain, key)
        shared = a.produce_block()
        b.apply_block(shared.to_record())
        for nonce in range(5):
            transfer(a, key, nonce=nonce)
            a.produce_block()                  # a: height 6, 5 txs applied
        b_blocks = [b.produce_block() for _ in range(7)]  # b: height 8, empty
        for block in b_blocks:
            a.apply_block(block.to_record())
        assert a.chain.latest_block.hash == b.chain.latest_block.hash
        assert a.stats()["max_reorg_depth"] == 5
        assert state_digest(a.chain.state) == state_digest(b.chain.state)
        # The five abandoned transfers are pending again.
        assert len(a.chain.mempool) == 5

    def test_rollback_snapshots_follow_the_cadence_and_retention(self):
        a = make_chain("val-a", snapshot_interval=2)
        b = make_chain("val-b", snapshot_interval=2)
        for _ in range(20):
            b.apply_block(a.produce_block().to_record())
        retained = list(range(20 - 2 * (ForkChoice.SNAPSHOTS_RETAINED - 1), 21, 2))
        for fork in (a, b):
            assert fork.snapshots.heights() == retained
            assert sorted(fork.snapshot_mint_seq) == retained

    def test_import_block_side_routing_needs_known_parent(self):
        a = make_chain("val-a")
        b = make_chain("val-b")
        b.produce_block()
        far = b.produce_block()
        with pytest.raises(Exception):
            a.chain.import_block(far.to_record())

    def test_apply_block_requires_fork_choice(self):
        # Side blocks and reorgs live on the replica's fork object only: a
        # plain chain refuses a record that does not extend its tip.
        a = make_chain("val-a")
        b = make_chain("val-b")
        b.produce_block()
        side = a.produce_block()
        assert b.apply_block(side.to_record()) in ("side", "reorged")
        with pytest.raises(BlockValidationError):
            Blockchain(genesis_timestamp=0.0).import_block(
                b.produce_block().to_record())
