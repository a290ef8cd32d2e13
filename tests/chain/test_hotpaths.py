"""Correctness guards for the ingest hot-path optimizations.

The fast paths (libcrypto signatures, memoized verification,
cached hashes, mempool indexes) must be behaviour-preserving: these tests
pin the equivalences and the cache-invalidation edges that keep them safe.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
import types
import weakref

import pytest

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.chain.account import Address, checksum_cache
from repro.chain import keys
from repro.chain.keys import Signature, verify_signature
from repro.chain.mempool import Mempool
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.errors import InvalidSignatureError
from repro.utils.hashing import keccak256
from repro.utils.units import ether_to_wei


#: The package's source root, for a child interpreter.
SRC = os.path.dirname(os.path.dirname(os.path.dirname(keys.__file__)))


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


#: One label's address and signature, as RFC 8032 fixes them.
VECTOR_ADDRESS = "0x8Ee100eb06ffDA6C483B84cBB92ebD213cdb5708"
VECTOR_E = 0x1941bc6f74d166b2fae81088d7edfa6dc07d79e14e053c54d59a91bc504e5170
VECTOR_S = 0x1411053e9307c891c2649390ab0627856aa0d4969ae2b8e90f3692a624b8ef

#: The bound backend, and the pure-Python fallback forced in its place.
BACKENDS = ["libcrypto", "pure python"]


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    """Run the test on each backend; yields its name."""
    if request.param == "pure python":
        monkeypatch.setattr(keys, "_backend", keys._PurePython("forced for this test"))
    yield keys.ed25519_backend()


def honest_signature(label):
    keypair = KeyPair.from_label(label)
    message = keccak256(label.encode())
    return keypair, message, keypair.sign(message)


def _forked_verdict(signature, message):
    """Run in a forked child: was the binding inherited, and the verdict."""
    inherited = keys._backend is not None
    return inherited, keys.ed25519_backend(), \
        verify_signature(signature, message)


class TestEd25519Refusals:
    """One test apiece for what either backend must refuse."""

    def test_a_tampered_signature_is_refused(self, backend):
        keypair, message, signature = honest_signature("refuse-tampered")
        assert verify_signature(signature, message)
        for tampered in (Signature(e=signature.e, s=signature.s ^ 1,
                                   public_key=signature.public_key),
                         Signature(e=signature.e ^ 1, s=signature.s,
                                   public_key=signature.public_key)):
            assert not verify_signature(tampered, message)
        assert not verify_signature(signature, keccak256(b"another message"))

    def test_a_foreign_signature_is_refused(self, backend):
        # Another key's valid signature over the same message, under this key,
        # and this key's signature claimed by another key.
        _, message, signature = honest_signature("refuse-foreign")
        foreign = KeyPair.from_label("refuse-foreign-other").sign(message)
        assert not verify_signature(Signature(e=foreign.e, s=foreign.s,
                                              public_key=signature.public_key), message)
        assert not verify_signature(Signature(e=signature.e, s=signature.s,
                                              public_key=foreign.public_key), message)

    def test_a_small_order_key_is_refused(self, backend):
        # R = the identity and S = 0 satisfy the group equation under the
        # identity key for any message.
        message = keccak256(b"refuse-small-order")
        for key in (1, 0, keys._P - 1, keys._ORDER_8_Y, 1 | 1 << 255):
            assert not keys.acceptable_public_key(key)
            assert not verify_signature(Signature(e=1, s=0, public_key=key), message)

    def test_a_non_canonical_key_is_refused(self, backend):
        # y at or above P, under either sign bit: P and P + 1 name small-order
        # points, P + 2 upwards the points of y = 2 upwards.
        _, message, signature = honest_signature("refuse-non-canonical")
        for key in (keys._P, keys._P + 1, keys._P + 2, (1 << 255) - 1,
                    keys._P + 2 | 1 << 255):
            assert not keys.acceptable_public_key(key)
            assert not verify_signature(Signature(e=signature.e, s=signature.s,
                                                  public_key=key), message)

    def test_an_s_at_or_above_l_is_refused(self, backend):
        _, message, signature = honest_signature("refuse-wide-s")
        for s in (signature.s + keys._L, keys._L, (1 << 256) - 1):
            assert not verify_signature(Signature(e=signature.e, s=s,
                                                  public_key=signature.public_key),
                                        message)


class TestEd25519Backend:
    """The libcrypto binding, and the pure-Python fallback in its place."""

    def test_the_backend_is_libcrypto(self):
        # A silent fallback would still be exact, only slower: name it here.
        assert keys.ed25519_backend().startswith("libcrypto (OpenSSL")

    def test_refused_inputs_never_reach_the_backend(self, monkeypatch):
        keypair, message, signature = honest_signature("kernel-refused")
        calls = []
        monkeypatch.setattr(keys, "_kernel", lambda: calls.append("kernel"))
        for refused in (Signature(e=signature.e, s=signature.s, public_key=1),
                        Signature(e=signature.e, s=signature.s, public_key=keys._P + 2),
                        Signature(e=signature.e, s=signature.s + keys._L,
                                  public_key=signature.public_key),
                        Signature(e=signature.e + (1 << 256), s=signature.s,
                                  public_key=signature.public_key),
                        Signature(e=-1, s=signature.s, public_key=signature.public_key)):
            assert not verify_signature(refused, message)
            with pytest.raises(InvalidSignatureError):
                keys.recover_address(refused, message)
        assert calls == []

    def test_signature_vector_unchanged(self, backend):
        # Signing is deterministic, and both backends sign alike.
        keypair, message, signature = honest_signature("ed25519-vector")
        assert keypair.address == VECTOR_ADDRESS
        assert (signature.e, signature.s) == (VECTOR_E, VECTOR_S)
        assert keys.recover_address(signature, message) == VECTOR_ADDRESS

    def test_the_address_hashes_the_32_key_bytes(self):
        keypair = KeyPair.from_label("address-bytes")
        digest = keccak256(keypair.public_key.to_bytes(32, "little"))
        assert keypair.address.lower() == "0x" + digest[-20:].hex()

    def test_one_context_takes_each_calls_key(self):
        # An EVP_MD_CTX initialised again without a reset keeps the key it
        # was first given: every call on this thread's context must still
        # judge by its own key, after a refusal and after a signature.
        signed = [honest_signature(f"context-{index}") for index in range(3)]
        for _ in range(2):
            for keypair, message, signature in signed:
                assert verify_signature(signature, message)
                assert not verify_signature(
                    Signature(e=signature.e, s=signature.s ^ 1,
                              public_key=signature.public_key), message)
                assert keypair.sign(message) == signature

    def test_a_refusal_leaves_no_openssl_error_queued(self):
        _, message, signature = honest_signature("kernel-error-queue")
        assert not verify_signature(Signature(e=signature.e, s=signature.s ^ 1,
                                              public_key=signature.public_key), message)
        assert keys._kernel()._lib.ERR_peek_error() == 0

    def test_concurrent_signing_and_verifying_stay_exact(self):
        # ctypes releases the GIL inside every libcrypto call: eight threads
        # derive keys, sign and verify at once, each on its own context,
        # against answers computed one at a time beforehand.
        labels = [f"kernel-thread-{index}" for index in range(8)]
        messages = [keccak256(b"kernel-thread-%d" % index) for index in range(4)]
        expected = {label: [KeyPair.from_label(label).sign(message)
                            for message in messages] for label in labels}
        pending = list(labels)
        contexts = []
        failures = []

        def worker():
            label = pending.pop()
            keypair = KeyPair.from_label(label)
            for message, want in zip(messages, expected[label]):
                signature = keypair.sign(message)
                tampered = Signature(e=want.e, s=want.s ^ 1,
                                     public_key=want.public_key)
                if (signature != want
                        or not verify_signature(signature, message)
                        or verify_signature(tampered, message)):
                    failures.append((label, message))
            contexts.append(weakref.ref(keys._kernel()._local.context))

        run_threads(worker, 8, 1e-6)
        assert failures == []
        # Each thread's context was its own and was freed when it ended.
        assert len(contexts) == 8
        assert all(ref() is None for ref in contexts)

    def test_a_forked_child_inherits_the_binding(self):
        keypair, message, signature = honest_signature("kernel-fork")
        with multiprocessing.get_context("fork").Pool(1) as pool:
            inherited, backend, verdict = pool.apply(
                _forked_verdict, (signature, message))
        assert inherited and verdict
        assert backend == keys.ed25519_backend()

    def test_forced_fallback_gives_the_same_keys_and_signatures(self, monkeypatch):
        keypair, message, signature = honest_signature("kernel-fallback")
        monkeypatch.setattr(keys, "_backend", keys._PurePython("unbound for this test"))
        assert keys.ed25519_backend() == "pure python (unbound for this test)"
        again = KeyPair.from_label("kernel-fallback")
        assert (again.public_key, again.address) == (keypair.public_key, keypair.address)
        assert again.sign(message) == signature
        assert verify_signature(signature, message)

    def test_a_hashlib_without_a_file_is_the_named_reason(self, monkeypatch):
        # An interpreter with ``_hashlib`` built in has no file to open.
        monkeypatch.setitem(sys.modules, "_hashlib", types.ModuleType("_hashlib"))
        monkeypatch.setattr(keys, "_backend", None)
        assert isinstance(keys._kernel(), keys._PurePython)
        assert keys.ed25519_backend() == ("pure python (AttributeError: module "
                                          "'_hashlib' has no attribute '__file__')")

    def test_an_unresolved_symbol_is_the_named_reason(self, monkeypatch):
        import ctypes

        monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace())
        monkeypatch.setattr(keys, "_backend", None)
        assert isinstance(keys._kernel(), keys._PurePython)
        assert "'EVP_PKEY_new_raw_private_key'" in keys.ed25519_backend()
        assert keys.ed25519_backend().startswith("pure python (AttributeError: ")
        keypair, message, signature = honest_signature("kernel-no-symbol")
        assert verify_signature(signature, message)

    def test_a_failed_libcrypto_call_raises(self):
        with pytest.raises(MemoryError, match="libcrypto EVP_MD_CTX_new failed"):
            keys._checked(None, types.SimpleNamespace(__name__="EVP_MD_CTX_new"), ())

    def test_the_module_keeps_no_cache(self):
        # No per-key state: each verify parses its key.
        from repro.utils.cache import LRUCache

        assert not [name for name, value in vars(keys).items()
                    if isinstance(value, LRUCache)]

    def test_importing_the_module_binds_nothing(self):
        done = subprocess.run(
            [sys.executable, "-c", "import sys, repro.chain.keys as keys; "
             "print('ctypes' in sys.modules, keys._backend)"],
            env={**os.environ, "PYTHONPATH": SRC}, stdout=subprocess.PIPE, text=True,
            timeout=60, check=True)
        assert done.stdout.split() == ["False", "None"]


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
        misses_after_first = checksum_cache().snapshot()["misses"]
        lowered = Address(keypair.address.lower())
        stats = checksum_cache().snapshot()
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
        before = checksum_cache().snapshot()["hits"]
        Address(keypair.address)
        assert checksum_cache().snapshot()["hits"] > before


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
        # Selection defers, it does not evict.
        assert stale.hash_hex in pool

    def test_default_cap_is_500_transactions_a_block(self):
        # A pool deeper than a block with gas to spare:
        # ``MAX_BLOCK_TRANSACTIONS`` is what bounds the selection.
        pool = self.make_pool_with(*[
            signed_transfer(f"cap-{i % 3}", nonce=i // 3) for i in range(501)])
        selected = pool.select_for_block(WorldState(), gas_limit=30_000_000)
        assert len(selected) == 500

