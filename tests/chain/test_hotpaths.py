"""Correctness guards for the ingest hot-path optimizations.

The fast paths (fixed-base comb exponentiation, memoized verification,
cached hashes, mempool indexes) must be behaviour-preserving: these tests
pin the equivalences and the cache-invalidation edges that keep them safe.
"""

import sys
import threading

import pytest

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.chain.account import Address, checksum_cache
from repro.chain.keys import (
    GENERATOR,
    GROUP_ORDER,
    GROUP_PRIME,
    _FixedBaseComb,
    _GENERATOR_COMB,
    _KEY_COMB_CAPACITY,
    _LimLeeComb,
    Signature,
    key_comb_cache,
    verify_signature,
)
from repro.chain.mempool import Mempool
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.utils.hashing import keccak256
from repro.utils.units import ether_to_wei


def signed_transfer(label, nonce=0, gas_price=10**9, to_label="sink", value=1):
    keypair = KeyPair.from_label(label)
    tx = Transaction(
        sender=Address(keypair.address),
        to=Address(KeyPair.from_label(to_label).address),
        value=value,
        nonce=nonce,
        gas_limit=21_000,
        gas_price=gas_price,
    )
    tx.sign(keypair)
    return tx


def run_threads(worker, count, switch_interval):
    """Run ``worker`` on ``count`` threads under a short GIL switch interval."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(switch_interval)
    try:
        threads = [threading.Thread(target=worker) for _ in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


class TestFixedBaseComb:
    @pytest.mark.parametrize("exponent", [
        0, 1, 2, 31, 32, (1 << 255) - 19, GROUP_ORDER - 1, GROUP_ORDER,
        123456789012345678901234567890,
        255, 256, 2**256 - 1, 2**512 - 1, 2**512, 2**512 + 1,
    ])
    def test_matches_builtin_pow(self, exponent):
        assert _GENERATOR_COMB.pow(exponent) == pow(GENERATOR, exponent, GROUP_PRIME)

    def test_signature_vectors_unchanged(self):
        # Signing is deterministic; the comb must not perturb the vectors a
        # seed-era signer would have produced.
        keypair = KeyPair.from_label("comb-vector")
        message = keccak256(b"comb-vector-message")
        signature = keypair.sign(message)
        commitment_free = pow(GENERATOR, signature.s, GROUP_PRIME)
        assert _GENERATOR_COMB.pow(signature.s) == commitment_free
        assert verify_signature(signature, message, keypair.address)

    def test_generator_order_divides_group_order(self):
        # The comb reduces exponents mod GROUP_ORDER; that is exact only
        # because the generator's multiplicative order divides it.
        assert pow(GENERATOR, GROUP_ORDER, GROUP_PRIME) == 1

    def test_huge_hostile_exponent_stays_bounded(self):
        # A wire signature can carry an arbitrarily large 's'.  The comb
        # must neither grow its table past its 64 fixed rows nor change the
        # result.
        keypair = KeyPair.from_label("comb-huge")
        message = keccak256(b"huge")
        signature = keypair.sign(message)
        huge_s = signature.s + GROUP_ORDER * (1 << 4096)
        forged = Signature(e=signature.e, s=huge_s, public_key=signature.public_key)
        # g^(s + k*order) == g^s: the forged signature still *verifies* (it
        # is the same group element), which is standard for Schnorr -- the
        # point here is the bounded table and the exact result.
        assert verify_signature(forged, message, keypair.address)
        assert len(_GENERATOR_COMB._rows) == 64
        assert _GENERATOR_COMB.pow(huge_s) == pow(GENERATOR, huge_s, GROUP_PRIME)
        # Still out of range after the reduction: the builtin answers and
        # the table grows nothing.
        for hostile in (GROUP_ORDER - 1, (1 << 1_000_000) + 12345):
            assert _GENERATOR_COMB.pow(hostile) == \
                pow(GENERATOR, hostile, GROUP_PRIME)
            assert len(_GENERATOR_COMB._rows) == 64

    def test_concurrent_first_use_builds_each_row_exactly_once(self):
        # Row building is check-then-append on a shared list: unlocked, two
        # threads on first use both append row i and every later row sits
        # one place off, so every later power in the process is wrong.
        comb = _FixedBaseComb(GENERATOR, GROUP_PRIME, GROUP_ORDER)
        exponent = (1 << 512) - 1
        expected = pow(GENERATOR, exponent, GROUP_PRIME)
        barrier = threading.Barrier(8)
        results = []

        def worker():
            barrier.wait(timeout=60)
            results.append(comb.pow(exponent))

        run_threads(worker, 8, 1e-6)
        assert len(comb._rows) == 64
        for i in (0, 1, 31, 32, 63):
            for d in (1, 2, 128, 255):
                assert comb._rows[i][d - 1] == \
                    pow(GENERATOR, d << (8 * i), GROUP_PRIME)
        assert results == [expected] * 8

    def test_tampered_signature_still_rejected(self):
        keypair = KeyPair.from_label("comb-tamper")
        message = keccak256(b"payload")
        signature = keypair.sign(message)
        forged = Signature(e=signature.e, s=(signature.s + 1) % GROUP_ORDER,
                           public_key=signature.public_key)
        assert not verify_signature(forged, message)
        assert not verify_signature(signature, keccak256(b"other payload"))


class TestKeyCombPromotion:
    """The default verify's per-sender table: built late, once, and kept.

    A table costs about two builtin powers to build, so the discipline *is*
    the optimization: a key that never repeats must never pay for one, a key
    that repeats pays once, and more repeating senders than the cache holds
    must degrade to the builtin rather than build and discard tables.  The
    cache is process-wide, so every test uses labels of its own and reads
    counter deltas.
    """

    @staticmethod
    def signed(label, count=1):
        keypair = KeyPair.from_label(label)
        messages = [keccak256(b"%s-%d" % (label.encode(), i))
                    for i in range(count)]
        return keypair, [(keypair.sign(m), m) for m in messages]

    def test_one_shot_keys_never_build(self):
        cache = key_comb_cache()
        builds = cache.builds
        for index in range(6):
            keypair, [(signature, message)] = self.signed(f"kc-one-shot-{index}")
            assert verify_signature(signature, message, keypair.address)
            assert cache.peek(keypair.public_key) == 1  # a count, not a table
        assert cache.builds == builds

    def test_a_repeating_key_builds_once_and_reuses_the_table(self):
        cache = key_comb_cache()
        builds, hits = cache.builds, cache.hits
        keypair, items = self.signed("kc-repeat", count=8)
        table = None
        for index, (signature, message) in enumerate(items):
            assert verify_signature(signature, message, keypair.address)
            if index == 0:
                continue  # first sighting: only the count is stored
            # The second sighting builds; from then on every verify finds
            # the very same table object.
            assert table is None or cache.peek(keypair.public_key) is table
            table = cache.peek(keypair.public_key)
            assert isinstance(table, _LimLeeComb)
        assert cache.builds == builds + 1
        assert cache.hits == hits + 7
        assert cache.stats()["builds"] == cache.builds

    def test_more_senders_than_the_cache_holds_never_build_thrash(self):
        # One more sender than the cap, in round-robin: by the time a sender
        # comes round again its sighting count was evicted, so it reads as
        # new -- zero tables built, zero discarded, verdicts all still right.
        cache = key_comb_cache()
        senders = [self.signed(f"kc-round-robin-{index}")
                   for index in range(_KEY_COMB_CAPACITY + 1)]
        builds, evictions = cache.builds, cache.evictions
        for _ in range(2):
            for keypair, [(signature, message)] in senders:
                assert verify_signature(signature, message, keypair.address)
        assert cache.builds == builds
        assert cache.evictions >= evictions + len(senders)
        assert len(cache) <= _KEY_COMB_CAPACITY

    def test_concurrent_verifies_build_each_key_exactly_once(self):
        # More threads than cores, all verifying the same three fresh
        # senders: count-then-promote is one locked step, so a lost update
        # (two threads both seeing "second sighting") would show as an extra
        # build.
        cache = key_comb_cache()
        senders = [self.signed(f"kc-threads-{index}", count=4)
                   for index in range(3)]
        builds = cache.builds
        failures = []

        def worker():
            for keypair, items in senders:
                for signature, message in items:
                    if not verify_signature(signature, message, keypair.address):
                        failures.append((keypair.address, message))

        run_threads(worker, 6, 1e-5)
        assert failures == []
        assert cache.builds == builds + len(senders)


class TestTransactionCaches:
    def test_hash_stable_and_cached(self):
        tx = signed_transfer("cache-a")
        first = tx.hash
        assert tx.hash is first  # cached object, not a re-computation
        assert tx.hash_hex == tx.hash.hex() or tx.hash_hex.startswith("0x")

    def test_mutating_identity_field_invalidates_hash(self):
        tx = signed_transfer("cache-b")
        before = tx.hash_hex
        tx.nonce = 7
        assert tx.hash_hex != before

    def test_verification_memo_hits(self):
        tx = signed_transfer("cache-c")
        assert tx.verify_signature()
        assert tx.verify_signature()  # memoized verdict

    def test_mutation_invalidates_verification(self):
        tx = signed_transfer("cache-d")
        assert tx.verify_signature()
        tx.value = 999  # signature no longer covers the payload
        assert not tx.verify_signature()

    def test_replacing_signature_invalidates_memo(self):
        tx = signed_transfer("cache-e")
        assert tx.verify_signature()
        other = KeyPair.from_label("cache-e-other")
        tx.signature = other.sign(tx.hash)  # wrong signer for this sender
        assert not tx.verify_signature()

    def test_from_dict_round_trip_verifies(self):
        tx = signed_transfer("cache-f")
        clone = Transaction.from_dict(tx.to_dict())
        assert clone.hash_hex == tx.hash_hex
        assert clone.verify_signature()


class TestAddressInterning:
    def test_chain_import_does_not_load_storage(self):
        # The interning cache lives in repro.utils.cache precisely so the
        # chain package keeps its documented one-way dependency (storage
        # imports the chain for recovery, never the reverse).
        import subprocess
        import sys

        code = ("import sys, repro.chain; "
                "bad = [m for m in sys.modules if m.startswith('repro.storage')]; "
                "raise SystemExit(1 if bad else 0)")
        result = subprocess.run([sys.executable, "-c", code])
        assert result.returncode == 0

    def test_lowercase_and_checksummed_forms_share_a_slot(self):
        keypair = KeyPair.from_label("intern-fold")
        checksummed = Address(keypair.address)
        misses_after_first = checksum_cache().stats()["misses"]
        lowered = Address(keypair.address.lower())
        stats = checksum_cache().stats()
        assert stats["misses"] == misses_after_first  # second form was a hit
        assert lowered == checksummed

    def test_equal_addresses_share_checksum(self):
        keypair = KeyPair.from_label("intern")
        a = Address(keypair.address)
        b = Address(keypair.address.upper().replace("0X", "0x"))
        assert a == b
        assert str(a) == str(b)
        assert a.lower == b.lower

    def test_cache_accumulates_hits(self):
        keypair = KeyPair.from_label("intern-hits")
        Address(keypair.address)
        before = checksum_cache().stats()["hits"]
        Address(keypair.address)
        assert checksum_cache().stats()["hits"] > before


class TestMempoolIndexes:
    def make_pool_with(self, *txs):
        pool = Mempool()
        for tx in txs:
            pool.add(tx)
        return pool

    def test_pending_count_and_nonces(self):
        t0 = signed_transfer("idx-a", nonce=0)
        t1 = signed_transfer("idx-a", nonce=1)
        other = signed_transfer("idx-b", nonce=0)
        pool = self.make_pool_with(t0, t1, other)
        sender = t0.sender.lower
        assert pool.pending_count(sender) == 2
        assert pool.pending_nonces(sender) == [0, 1]
        assert pool.pending_count(other.sender.lower) == 1
        assert pool.pending_count("0x" + "00" * 20) == 0

    def test_remove_maintains_index(self):
        t0 = signed_transfer("idx-c", nonce=0)
        t1 = signed_transfer("idx-c", nonce=1)
        pool = self.make_pool_with(t0, t1)
        pool.remove(t0.hash_hex)
        sender = t0.sender.lower
        assert pool.pending_count(sender) == 1
        assert pool.pending_nonces(sender) == [1]
        pool.remove(t1.hash_hex)
        assert pool.pending_count(sender) == 0
        assert pool.pending_nonces(sender) == []

    def test_pending_order_cache_invalidates_on_add(self):
        cheap = signed_transfer("idx-d", nonce=0, gas_price=10**9)
        pool = self.make_pool_with(cheap)
        assert [t.hash_hex for t in pool.pending()] == [cheap.hash_hex]
        rich = signed_transfer("idx-e", nonce=0, gas_price=5 * 10**9)
        pool.add(rich)
        assert [t.hash_hex for t in pool.pending()] == [rich.hash_hex, cheap.hash_hex]

    def test_multipass_selection_order_preserved(self):
        # The historical multi-pass semantics: a high-fee transaction whose
        # nonce unlocks mid-pass waits for the NEXT pass, so lower-fee
        # already-eligible transactions still come first.
        state = WorldState()
        s_low = signed_transfer("idx-s", nonce=0, gas_price=5 * 10**9)
        s_high = signed_transfer("idx-s", nonce=1, gas_price=10 * 10**9)
        z_mid = signed_transfer("idx-z", nonce=0, gas_price=4 * 10**9)
        pool = self.make_pool_with(s_low, s_high, z_mid)
        selected = pool.select_for_block(state, gas_limit=30_000_000)
        assert [t.hash_hex for t in selected] == [
            s_low.hash_hex, z_mid.hash_hex, s_high.hash_hex]

    def test_prune_stale_uses_nonce_index(self):
        stale = signed_transfer("idx-f", nonce=0)
        fresh = signed_transfer("idx-f", nonce=3)
        pool = self.make_pool_with(stale, fresh)
        state = WorldState()
        account = state.get_account(stale.sender)
        account.nonce = 3
        assert pool.prune_stale(state) == 1
        assert stale.hash_hex not in pool
        assert fresh.hash_hex in pool


class TestBatchedProduction:
    def test_produce_blocks_count_and_until_empty(self):
        node = EthereumNode()
        faucet = Faucet(node)
        keypair = KeyPair.from_label("batch-prod")
        faucet.drip(keypair.address, ether_to_wei(1))
        for nonce in range(3):
            tx = Transaction(sender=Address(keypair.address),
                             to=Address(KeyPair.from_label("batch-sink").address),
                             value=1, nonce=nonce, gas_limit=21_000)
            tx.sign(keypair)
            node.send_transaction(tx)
        empty_then_mined = node.chain.produce_blocks(until_empty=True)
        assert len(node.chain.mempool) == 0
        assert sum(len(b.transactions) for b in empty_then_mined) == 3
        two_more = node.mine(2)
        assert len(two_more) == 2
        assert all(not b.transactions for b in two_more)
        assert node.chain.produce_blocks() == []  # no count, no drain: no-op


class TestSelectionEdgeCases:
    """Backfill for ``select_for_block``'s ordering and staleness edges."""

    def make_pool_with(self, *txs):
        pool = Mempool()
        for tx in txs:
            pool.add(tx)
        return pool

    def test_equal_fee_ties_break_by_arrival_order(self):
        # Same gas price everywhere: selection must follow insertion order
        # (the arrival index is the sort tie-break), never hash order.
        state = WorldState()
        first = signed_transfer("tie-a", nonce=0, gas_price=3 * 10**9)
        second = signed_transfer("tie-b", nonce=0, gas_price=3 * 10**9)
        third = signed_transfer("tie-c", nonce=0, gas_price=3 * 10**9)
        pool = self.make_pool_with(first, second, third)
        selected = pool.select_for_block(state, gas_limit=30_000_000)
        assert [t.hash_hex for t in selected] == [
            first.hash_hex, second.hash_hex, third.hash_hex]
        # Reversed arrival, same fee: reversed selection.
        pool = self.make_pool_with(third, second, first)
        selected = pool.select_for_block(state, gas_limit=30_000_000)
        assert [t.hash_hex for t in selected] == [
            third.hash_hex, second.hash_hex, first.hash_hex]

    def test_equal_fee_tie_break_survives_higher_fee_interleaving(self):
        state = WorldState()
        cheap_early = signed_transfer("tie-d", nonce=0, gas_price=2 * 10**9)
        rich = signed_transfer("tie-e", nonce=0, gas_price=9 * 10**9)
        cheap_late = signed_transfer("tie-f", nonce=0, gas_price=2 * 10**9)
        pool = self.make_pool_with(cheap_early, rich, cheap_late)
        selected = pool.select_for_block(state, gas_limit=30_000_000)
        assert [t.hash_hex for t in selected] == [
            rich.hash_hex, cheap_early.hash_hex, cheap_late.hash_hex]

    def test_stale_nonce_is_skipped_during_selection(self):
        # The account nonce moved past a pending transaction (e.g. a
        # competing block consumed it): selection must skip the stale tx
        # without stalling the sender's still-valid successors.
        state = WorldState()
        stale = signed_transfer("stale-a", nonce=0)
        valid = signed_transfer("stale-a", nonce=2)
        other = signed_transfer("stale-b", nonce=0)
        pool = self.make_pool_with(stale, valid, other)
        state.get_account(stale.sender).nonce = 2
        selected = pool.select_for_block(state, gas_limit=30_000_000)
        # Equal fees, so arrival order decides: ``valid`` arrived before
        # ``other`` and is immediately eligible (its nonce matches the
        # account), while ``stale`` is skipped without blocking it.
        assert [t.hash_hex for t in selected] == [
            valid.hash_hex, other.hash_hex]
        # Selection defers, it does not evict; the prune pass owns eviction.
        assert stale.hash_hex in pool
        assert pool.prune_stale(state) == 1
        assert stale.hash_hex not in pool
        assert valid.hash_hex in pool

    def test_default_cap_is_500_transactions_a_block(self):
        # A pool deeper than a block with gas to spare: the default
        # ``max_count`` is what bounds the selection.
        pool = self.make_pool_with(*[
            signed_transfer(f"cap-{i % 3}", nonce=i // 3) for i in range(501)])
        selected = pool.select_for_block(WorldState(), gas_limit=30_000_000)
        assert len(selected) == 500

    def test_selection_prefix_stability(self):
        # Greedy selection is prefix-stable in ``max_count``: a smaller cap
        # picks the first transactions of a larger one.
        state = WorldState()
        txs = [signed_transfer(f"prefix-{i}", nonce=0,
                               gas_price=(10 - i % 3) * 10**9)
               for i in range(12)]
        pool = self.make_pool_with(*txs)
        wide = pool.select_for_block(state, gas_limit=30_000_000,
                                     max_count=12)
        narrow = pool.select_for_block(state, gas_limit=30_000_000,
                                       max_count=5)
        assert [t.hash_hex for t in wide[:5]] == \
            [t.hash_hex for t in narrow]
