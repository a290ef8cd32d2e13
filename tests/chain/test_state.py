"""Tests for repro.chain.state."""

import pytest

from repro.errors import InsufficientFundsError
from repro.chain.account import Address
from repro.chain.keys import KeyPair
from repro.chain.state import WorldState
from tests.oracles import total_supply

ALICE = KeyPair.from_label("alice").address
BOB = KeyPair.from_label("bob").address


class CountingDict(dict):
    """A dict that counts whole-map reads (iteration and copies)."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()

    def items(self):
        self.reads += 1
        return super().items()

    def values(self):
        self.reads += 1
        return super().values()


class CountingList(list):
    """A list that counts pops."""

    pops = 0

    def pop(self, *args):
        self.pops += 1
        return super().pop(*args)


class TestBalances:
    def test_unknown_account_has_zero_balance(self):
        assert WorldState().balance_of(ALICE) == 0

    def test_credit_and_debit(self):
        state = WorldState()
        state.credit(ALICE, 100)
        state.debit(ALICE, 30)
        assert state.balance_of(ALICE) == 70

    def test_debit_more_than_balance_raises(self):
        state = WorldState()
        state.credit(ALICE, 10)
        with pytest.raises(InsufficientFundsError):
            state.debit(ALICE, 11)

    def test_transfer_moves_funds(self):
        state = WorldState()
        state.credit(ALICE, 100)
        state.transfer(ALICE, BOB, 40)
        assert state.balance_of(ALICE) == 60
        assert state.balance_of(BOB) == 40

    def test_transfer_conserves_total_supply(self):
        state = WorldState()
        state.credit(ALICE, 100)
        before = total_supply(state)
        state.transfer(ALICE, BOB, 55)
        assert total_supply(state) == before

    def test_negative_credit_rejected(self):
        with pytest.raises(ValueError):
            WorldState().credit(ALICE, -1)


class TestNonces:
    def test_nonce_starts_at_zero(self):
        assert WorldState().nonce_of(ALICE) == 0

    def test_increment(self):
        state = WorldState()
        assert state.increment_nonce(ALICE) == 1
        assert state.increment_nonce(ALICE) == 2
        assert state.nonce_of(ALICE) == 2


class TestSnapshots:
    def test_revert_restores_balances(self):
        state = WorldState()
        state.credit(ALICE, 100)
        snapshot = state.snapshot()
        state.transfer(ALICE, BOB, 60)
        state.revert(snapshot)
        assert state.balance_of(ALICE) == 100
        assert state.balance_of(BOB) == 0

    def test_revert_restores_storage(self):
        state = WorldState()
        account = state.get_account(ALICE)
        account.storage["key"] = "before"
        snapshot = state.snapshot()
        state.set_storage(ALICE, "key", "after")
        state.revert(snapshot)
        assert state.get_account(ALICE).storage["key"] == "before"

    def test_commit_keeps_changes(self):
        state = WorldState()
        state.credit(ALICE, 100)
        snapshot = state.snapshot()
        state.transfer(ALICE, BOB, 60)
        state.commit(snapshot)
        assert state.balance_of(BOB) == 60

    def test_nested_snapshots(self):
        state = WorldState()
        state.credit(ALICE, 100)
        outer = state.snapshot()
        state.debit(ALICE, 10)
        inner = state.snapshot()
        state.debit(ALICE, 20)
        state.revert(inner)
        assert state.balance_of(ALICE) == 90
        state.revert(outer)
        assert state.balance_of(ALICE) == 100

    def test_snapshot_and_revert_touch_only_what_was_written(self):
        # 10 000 accounts: a snapshot reads none of them, and the revert
        # undoes the four entries written since the mark (two balances,
        # one account created, one nonce) and nothing else.
        state = WorldState()
        addresses = [Address("0x%040x" % (index + 1)) for index in range(10_000)]
        for address in addresses:
            state.credit(address, 100)
        state._accounts = CountingDict(state._accounts)
        state._journal = CountingList()
        before = state.to_dict()
        state._accounts.reads = 0
        snapshot = state.snapshot()
        state.transfer(addresses[0], BOB, 60)
        state.increment_nonce(addresses[1])
        assert len(state._journal) == 4
        state.revert(snapshot)
        assert state._journal.pops == 4 and state._journal == []
        assert state._accounts.reads == 0
        assert state.to_dict() == before

    def test_unknown_snapshot_id_rejected(self):
        with pytest.raises(ValueError):
            WorldState().revert(0)

    def test_accounts_iteration_and_dump(self):
        state = WorldState()
        state.credit(ALICE, 1)
        state.credit(BOB, 2)
        assert len(list(state.accounts())) == 2
        assert len(state.to_dict()) == 2
