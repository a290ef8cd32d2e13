"""Tests for repro.chain.mempool."""

import pytest

from repro.errors import MempoolError
from repro.chain.account import Address
from repro.chain.keys import KeyPair
from repro.chain.mempool import Mempool
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction

ALICE = KeyPair.from_label("alice")
BOB = KeyPair.from_label("bob")


def make_tx(sender=ALICE, nonce=0, gas_price=10**9, gas_limit=21_000) -> Transaction:
    tx = Transaction(
        sender=Address(sender.address),
        to=Address(BOB.address),
        value=1,
        nonce=nonce,
        gas_limit=gas_limit,
        gas_price=gas_price,
    )
    return tx.sign(sender)


class TestAdd:
    def test_add_returns_hash(self):
        pool = Mempool()
        tx = make_tx()
        assert pool.add(tx) == tx.hash_hex
        assert tx.hash_hex in pool
        assert len(pool) == 1

    def test_duplicate_rejected(self):
        pool = Mempool()
        tx = make_tx()
        pool.add(tx)
        with pytest.raises(MempoolError):
            pool.add(tx)

    def test_unsigned_rejected(self):
        pool = Mempool()
        tx = Transaction(sender=Address(ALICE.address), to=Address(BOB.address), value=1)
        with pytest.raises(MempoolError):
            pool.add(tx)

    def test_full_pool_rejected(self):
        pool = Mempool(max_size=1)
        pool.add(make_tx(nonce=0))
        with pytest.raises(MempoolError):
            pool.add(make_tx(nonce=1))

    def test_remove(self):
        pool = Mempool()
        tx = make_tx()
        pool.add(tx)
        assert pool.remove(tx.hash_hex) is tx
        assert len(pool) == 0


class TestOrderingAndSelection:
    def test_pending_ordered_by_gas_price(self):
        pool = Mempool()
        cheap = make_tx(nonce=0, gas_price=1 * 10**9)
        pricey = make_tx(sender=BOB, nonce=0, gas_price=5 * 10**9)
        pool.add(cheap)
        pool.add(pricey)
        assert pool.pending()[0] is pricey

    def test_selection_respects_nonce_order_per_sender(self):
        pool = Mempool()
        state = WorldState()
        first = make_tx(nonce=0, gas_price=1 * 10**9)
        second = make_tx(nonce=1, gas_price=9 * 10**9)  # higher fee but later nonce
        pool.add(first)
        pool.add(second)
        selected = pool.select_for_block(state, gas_limit=30_000_000)
        assert selected == [first, second]

    def test_selection_skips_nonce_gaps(self):
        pool = Mempool()
        state = WorldState()
        pool.add(make_tx(nonce=2))
        assert pool.select_for_block(state, gas_limit=30_000_000) == []

    def test_selection_respects_block_gas_limit(self):
        pool = Mempool()
        state = WorldState()
        pool.add(make_tx(nonce=0, gas_limit=25_000))
        pool.add(make_tx(sender=BOB, nonce=0, gas_limit=25_000))
        selected = pool.select_for_block(state, gas_limit=30_000)
        assert len(selected) == 1
