"""Correctness guards for the ingest hot-path optimizations.

The fast paths (libcrypto group arithmetic, memoized verification,
cached hashes, mempool indexes) must be behaviour-preserving: these tests
pin the equivalences and the cache-invalidation edges that keep them safe.
"""

import multiprocessing
import sys
import threading
import types
import weakref

import pytest

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.chain.account import Address, checksum_cache
from repro.chain import keys
from repro.chain.keys import (
    GENERATOR,
    GROUP_ORDER,
    GROUP_PRIME,
    Signature,
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


#: The signature the pure-Python arithmetic produced for one label and message.
VECTOR_ADDRESS = "0x109a36E06b3C276e7930e15EAA30001e25F0341B"
VECTOR_E = 0xd0c2434ba5114d4ea39d2c2740c543692027ef9d6a4ffc58cf15040bb08f977a
VECTOR_S = int(
    "27543e1d844e599430fdf390ca5d413ddad59d8f121785dab67b42dd0139e6c6"
    "0c9570163fd337bc12737dc00c5ae9c5a2a202393eda7ee26b896be0a91e8800", 16)

#: Byte and word edges, the honest sizes, the group order, negatives, and a
#: hostile ``s`` that had a huge multiple of the order added.
EXPONENTS = [0, 1, 255, 256, 2**256 - 1, 2**256 + 1, 2**512 - 1, 2**512 + 1,
             GROUP_ORDER - 1, GROUP_ORDER, GROUP_ORDER + 1, -1, -(2**300 + 7),
             VECTOR_S + GROUP_ORDER * (1 << 4096)]


def generator_power(exponent):
    return keys._kernel().generator_power(exponent)


def two_base_power(s, base, e):
    return keys._kernel().two_base_power(s, base, e)


def _forked_verdict(signature, message, address):
    """Run in a forked child: was the binding inherited, and the verdict."""
    inherited = keys._backend is not None
    return inherited, keys.schnorr_backend(), \
        verify_signature(signature, message, address)


class TestSchnorrKernel:
    """The libcrypto kernel against the builtin ``pow`` it replaces."""

    def test_the_kernel_is_libcrypto(self):
        # A silent fallback would still be exact, only slower: name it here.
        assert keys.schnorr_backend().startswith("libcrypto (OpenSSL")

    @pytest.mark.parametrize("exponent", EXPONENTS)
    def test_generator_power_matches_builtin_pow(self, exponent):
        assert generator_power(exponent) == pow(GENERATOR, exponent, GROUP_PRIME)

    @pytest.mark.parametrize("base", ["honest inverse", "outside the subgroup"])
    @pytest.mark.parametrize("exponent", EXPONENTS)
    def test_two_base_product_matches_builtin_pow(self, exponent, base):
        if base == "honest inverse":
            base = pow(KeyPair.from_label("comb-vector").public_key, -1, GROUP_PRIME)
        else:
            base = GROUP_PRIME - 2
            assert pow(base, GROUP_ORDER, GROUP_PRIME) != 1
        # verify range-checks ``e`` first, so the kernel takes ``e >= 0``.
        e = abs(exponent)
        assert two_base_power(exponent, base, e) == \
            pow(GENERATOR, exponent, GROUP_PRIME) * pow(base, e, GROUP_PRIME) \
            % GROUP_PRIME

    def test_signature_vectors_unchanged(self):
        # Signing is deterministic; the kernel must not move a vector the
        # pure-Python arithmetic produced.
        keypair = KeyPair.from_label("comb-vector")
        message = keccak256(b"comb-vector-message")
        signature = keypair.sign(message)
        assert keypair.address == VECTOR_ADDRESS
        assert (signature.e, signature.s) == (VECTOR_E, VECTOR_S)
        assert generator_power(signature.s) == \
            pow(GENERATOR, signature.s, GROUP_PRIME)
        assert verify_signature(signature, message, keypair.address)

    def test_generator_order_divides_group_order(self):
        # Generator exponents are reduced mod GROUP_ORDER before they reach
        # libcrypto; that is exact only because the generator's
        # multiplicative order divides it.
        assert pow(GENERATOR, GROUP_ORDER, GROUP_PRIME) == 1

    def test_huge_hostile_exponent_is_reduced_exactly(self):
        # A wire signature can carry an arbitrarily large or negative 's'.
        keypair = KeyPair.from_label("comb-huge")
        message = keccak256(b"huge")
        signature = keypair.sign(message)
        # g^(s + k*order) == g^s: these still *verify* (the same group
        # element), which is standard for Schnorr -- the point is the exact
        # result.
        for congruent in (signature.s + GROUP_ORDER * (1 << 4096),
                          signature.s - GROUP_ORDER):
            forged = Signature(e=signature.e, s=congruent,
                               public_key=signature.public_key)
            assert verify_signature(forged, message, keypair.address)
        hostile = Signature(e=signature.e, s=(1 << 1_000_000) + 12345,
                            public_key=signature.public_key)
        assert not verify_signature(hostile, message)

    def test_tampered_signature_still_rejected(self):
        keypair = KeyPair.from_label("comb-tamper")
        message = keccak256(b"payload")
        signature = keypair.sign(message)
        forged = Signature(e=signature.e, s=(signature.s + 1) % GROUP_ORDER,
                           public_key=signature.public_key)
        assert not verify_signature(forged, message)
        assert not verify_signature(signature, keccak256(b"other payload"))

    def test_concurrent_signing_and_verifying_stay_exact(self):
        # ctypes releases the GIL inside every libcrypto call: eight threads
        # derive keys, sign and verify at once, each on its own scratch
        # BIGNUMs, against answers computed one at a time beforehand.
        labels = [f"kernel-thread-{index}" for index in range(8)]
        messages = [keccak256(b"kernel-thread-%d" % index) for index in range(4)]
        expected = {label: [KeyPair.from_label(label).sign(message)
                            for message in messages] for label in labels}
        pending = list(labels)
        scratches = []
        failures = []

        def worker():
            label = pending.pop()
            keypair = KeyPair.from_label(label)
            for message, want in zip(messages, expected[label]):
                signature = keypair.sign(message)
                tampered = Signature(e=want.e, s=want.s + 1,
                                     public_key=want.public_key)
                if (signature != want
                        or not verify_signature(signature, message, keypair.address)
                        or verify_signature(tampered, message)):
                    failures.append((label, message))
            scratches.append(weakref.ref(keys._kernel()._local.scratch))

        run_threads(worker, 8, 1e-6)
        assert failures == []
        # Each thread's scratch was its own and was freed when it ended.
        assert len(scratches) == 8
        assert all(ref() is None for ref in scratches)

    def test_a_forked_child_inherits_the_binding(self):
        keypair = KeyPair.from_label("kernel-fork")
        message = keccak256(b"fork")
        signature = keypair.sign(message)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            inherited, backend, verdict = pool.apply(
                _forked_verdict, (signature, message, keypair.address))
        assert inherited and verdict
        assert backend == keys.schnorr_backend()

    def test_forced_fallback_gives_the_same_verdicts(self, monkeypatch):
        keypair = KeyPair.from_label("kernel-fallback")
        message = keccak256(b"fallback")
        signature = keypair.sign(message)
        forged = Signature(e=signature.e, s=signature.s + 1,
                           public_key=signature.public_key)
        monkeypatch.setattr(keys, "_backend", keys._BuiltinPow("unbound for this test"))
        assert keys.schnorr_backend() == "builtin pow (unbound for this test)"
        assert KeyPair.from_label("kernel-fallback").public_key == \
            keypair.public_key
        assert keypair.sign(message) == signature
        assert verify_signature(signature, message, keypair.address)
        assert not verify_signature(forged, message)

    def test_a_hashlib_without_a_file_is_the_named_reason(self, monkeypatch):
        # An interpreter with ``_hashlib`` built in has no file to open.
        monkeypatch.setitem(sys.modules, "_hashlib", types.ModuleType("_hashlib"))
        monkeypatch.setattr(keys, "_backend", None)
        assert isinstance(keys._kernel(), keys._BuiltinPow)
        assert keys.schnorr_backend() == ("builtin pow (AttributeError: module "
                                          "'_hashlib' has no attribute '__file__')")

    def test_an_unresolved_symbol_is_the_named_reason(self, monkeypatch):
        import ctypes

        monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace())
        monkeypatch.setattr(keys, "_backend", None)
        assert isinstance(keys._kernel(), keys._BuiltinPow)
        assert "'BN_new'" in keys.schnorr_backend()
        assert keys.schnorr_backend().startswith("builtin pow (AttributeError: ")
        keypair = KeyPair.from_label("kernel-no-symbol")
        message = keccak256(b"no symbol")
        assert verify_signature(keypair.sign(message), message, keypair.address)

    def test_a_failed_libcrypto_call_raises(self):
        with pytest.raises(MemoryError, match="libcrypto BN_new failed"):
            keys._checked(None, types.SimpleNamespace(__name__="BN_new"), ())


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


class TestBlockHeaderHash:
    NEW_VALUES = {
        "number": 8,
        "parent_hash": "0x" + "ab" * 32,
        "timestamp": 12.5,
        "proposer": Address("0x" + "42" * 20),
        "gas_used": 21_000,
        "gas_limit": 15_000_000,
        "transactions_root": "0x" + "cd" * 32,
        "receipts_root": "0x" + "ef" * 32,
        "extra_data": "re-sealed",
    }

    @staticmethod
    def header():
        from repro.chain.block import BlockHeader

        return BlockHeader(number=7, parent_hash="0x" + "11" * 32, timestamp=3.0,
                           proposer=Address("0x" + "22" * 20), extra_data="x")

    def test_the_hash_is_memoised(self):
        header = self.header()
        assert header.hash is header.hash
        assert header.to_dict()["hash"] is header.hash

    def test_the_new_values_cover_every_header_field(self):
        from dataclasses import fields

        assert set(self.NEW_VALUES) == {field.name for field in fields(self.header())}

    @pytest.mark.parametrize("name", sorted(NEW_VALUES))
    def test_assigning_a_field_after_a_read_rehashes(self, name):
        from dataclasses import asdict

        from repro.chain.block import BlockHeader

        header = self.header()
        before = header.hash
        setattr(header, name, self.NEW_VALUES[name])
        fresh = BlockHeader(**asdict(header)).hash
        assert header.hash == fresh != before


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
