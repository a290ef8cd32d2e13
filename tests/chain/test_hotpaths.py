"""Correctness guards for the ingest hot-path optimizations.

The fast paths (libcrypto group arithmetic, memoized verification,
cached hashes, mempool indexes) must be behaviour-preserving: these tests
pin the equivalences and the cache-invalidation edges that keep them safe.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
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
    address_from_public_key,
    verify_signature,
)
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


#: The signature the pure-Python arithmetic produced for one label and message.
VECTOR_ADDRESS = "0x109a36E06b3C276e7930e15EAA30001e25F0341B"
VECTOR_E = 0xd0c2434ba5114d4ea39d2c2740c543692027ef9d6a4ffc58cf15040bb08f977a
VECTOR_S = int(
    "27543e1d844e599430fdf390ca5d413ddad59d8f121785dab67b42dd0139e6c6"
    "0c9570163fd337bc12737dc00c5ae9c5a2a202393eda7ee26b896be0a91e8800", 16)

#: Byte and word edges, the honest sizes, the points a verify splits its
#: exponents at (``e`` at 2^128, ``s mod q`` at 2^256, and 2^512 where the
#: high half of ``s`` crosses a word), the group order, negatives, a hostile
#: ``s`` that had a huge multiple of the order added, and the edges of ``g``'s
#: fixed-base table: an honest ``s`` is below 2^513, the table covers 516
#: bits, and the bits above them take a power of ``g^(2^516)``.
EXPONENTS = [0, 1, 255, 256, 2**128 - 1, 2**128, 2**128 + 1,
             2**256 - 1, 2**256, 2**256 + 1, 2**512 - 1, 2**512, 2**512 + 1,
             GROUP_ORDER - 1, GROUP_ORDER, GROUP_ORDER + 1, -1, -(2**300 + 7),
             VECTOR_S + GROUP_ORDER * (1 << 4096),
             2**513 - 1, 2**513 + 1, 2**516 - 1, 2**516, 2**516 + 1, -(2**516)]

#: The bound kernel, and the builtin-``pow`` fallback forced in its place.
KERNELS = ["libcrypto", "builtin pow"]


def kernel_named(name):
    if name == "libcrypto":
        return keys._kernel()
    return keys._BuiltinPow("forced for this test")


def base_named(name):
    """An honest key's inverse, or a base outside the order-``q`` subgroup."""
    if name == "honest inverse":
        return pow(KeyPair.from_label("comb-vector").public_key, -1, GROUP_PRIME)
    base = GROUP_PRIME - 2
    assert pow(base, GROUP_ORDER, GROUP_PRIME) != 1
    return base


def _forked_verdict(signature, message):
    """Run in a forked child: was the binding inherited, and the verdict."""
    inherited = keys._backend is not None
    return inherited, keys.schnorr_backend(), \
        verify_signature(signature, message)


class TestSchnorrKernel:
    """The libcrypto kernel against the builtin ``pow`` it replaces."""

    def test_the_kernel_is_libcrypto(self):
        # A silent fallback would still be exact, only slower: name it here.
        assert keys.schnorr_backend().startswith("libcrypto (OpenSSL")

    @pytest.mark.parametrize("exponent", EXPONENTS)
    def test_generator_power_matches_builtin_pow(self, exponent):
        assert keys._kernel().generator_power(exponent) == \
            pow(GENERATOR, exponent, GROUP_PRIME)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("value", [2, 3, GROUP_ORDER, GROUP_PRIME - 2, GROUP_PRIME - 1,
                                       "honest inverse", "outside the subgroup"])
    def test_inverse_matches_builtin_pow(self, value, kernel):
        if isinstance(value, str):
            value = base_named(value)
        assert kernel_named(kernel).inverse(value) == pow(value, -1, GROUP_PRIME)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("base", ["honest inverse", "outside the subgroup"])
    @pytest.mark.parametrize("exponent", EXPONENTS)
    def test_power_matches_builtin_pow(self, exponent, base, kernel):
        # Public powers (the constant g^(2^516), each key's (y^-1)^(2^128))
        # take exponents >= 0 only.
        base, exponent = base_named(base), abs(exponent)
        assert kernel_named(kernel).power(base, exponent) == \
            pow(base, exponent, GROUP_PRIME)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("base", ["honest inverse", "outside the subgroup"])
    @pytest.mark.parametrize("exponent", EXPONENTS)
    def test_commitment_matches_builtin_pow(self, exponent, base, kernel):
        base = base_named(base)
        # verify range-checks ``e`` first, so the kernel takes ``e >= 0``.
        e = abs(exponent)
        assert kernel_named(kernel).commitment(
            exponent, e, base, pow(base, 2**128, GROUP_PRIME)) == \
            pow(GENERATOR, exponent, GROUP_PRIME) * pow(base, e, GROUP_PRIME) \
            % GROUP_PRIME

    @pytest.mark.parametrize("e", [2**256, GROUP_ORDER - 1])
    def test_a_challenge_no_hash_can_equal_never_reaches_the_kernel(
            self, monkeypatch, e):
        # A keccak-256 digest is below 2^256, and 2^256 < q: both are
        # rejected before the key's cache entry or any power.
        keypair = KeyPair.from_label(f"kernel-wide-e-{e.bit_length()}")
        message = keccak256(b"wide e")
        signature = Signature(e=e, s=keypair.sign(message).s,
                              public_key=keypair.public_key)
        calls = []
        monkeypatch.setattr(keys, "_kernel", lambda: calls.append("kernel"))
        assert not verify_signature(signature, message)
        with pytest.raises(InvalidSignatureError):
            keys.recover_address(signature, message)
        assert calls == []
        assert keys.inverse_cache().peek(keypair.public_key) is None

    def test_a_warm_key_recovers_its_address_without_hashing_the_key(
            self, monkeypatch):
        keypair = KeyPair.from_label("kernel-warm-address")
        message = keccak256(b"warm address")
        signature = keypair.sign(message)
        assert keys.recover_address(signature, message) == keypair.address
        cached = keys.inverse_cache().peek(keypair.public_key)
        assert cached.address == address_from_public_key(keypair.public_key)
        hashed = []

        def spy(data):
            hashed.append(data)
            return keccak256(data)

        monkeypatch.setattr(keys, "keccak256", spy)
        assert keys.recover_address(signature, message) == keypair.address
        assert verify_signature(signature, message)
        # Only the challenge, ``keccak(r || message)``, is hashed.
        assert len(hashed) == 2
        assert all(data.endswith(message) for data in hashed)

    def test_an_entry_evicted_after_its_verify_still_gives_the_address(
            self, monkeypatch):
        keypair = KeyPair.from_label("kernel-evicted-address")
        message = keccak256(b"evicted address")
        signature = keypair.sign(message)
        verify = keys.verify_signature

        def verify_then_evict(*args):
            verdict = verify(*args)
            keys.inverse_cache().clear()  # as another thread's misses might
            return verdict

        monkeypatch.setattr(keys, "verify_signature", verify_then_evict)
        assert keys.recover_address(signature, message) == keypair.address

    def test_signature_vectors_unchanged(self):
        # Signing is deterministic; the kernel must not move a vector the
        # pure-Python arithmetic produced.
        keypair = KeyPair.from_label("comb-vector")
        message = keccak256(b"comb-vector-message")
        signature = keypair.sign(message)
        assert keypair.address == VECTOR_ADDRESS
        assert (signature.e, signature.s) == (VECTOR_E, VECTOR_S)
        assert keys._kernel().generator_power(signature.s) == \
            pow(GENERATOR, signature.s, GROUP_PRIME)
        assert verify_signature(signature, message)

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
            assert verify_signature(forged, message)
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
                        or not verify_signature(signature, message)
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
                _forked_verdict, (signature, message))
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
        assert verify_signature(signature, message)
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
        assert verify_signature(keypair.sign(message), message)

    def test_a_failed_libcrypto_call_raises(self):
        with pytest.raises(MemoryError, match="libcrypto BN_new failed"):
            keys._checked(None, types.SimpleNamespace(__name__="BN_new"), ())


def _forked_table_verdict(signature, message):
    """Run in a forked child: was a table inherited, did the child build one,
    and the verdict."""
    kernel = keys._kernel()
    inherited = kernel._table
    built = []

    def build():
        built.append("table")
        raise AssertionError("the child built a table")

    kernel._build_table = build
    verdict = verify_signature(signature, message)
    return inherited is not None, kernel._table is inherited, built, verdict


class _UnreadableTable:
    """A fixed-base table whose every entry read fails."""

    def __getitem__(self, index):
        raise LookupError(f"the table was read at {index}")


class _RecordingLibrary:
    """A libcrypto handle that names every function called through it."""

    def __init__(self, lib):
        self._lib, self.names = lib, []

    def __getattr__(self, name):
        function = getattr(self._lib, name)

        def call(*args):
            self.names.append(name)
            return function(*args)

        return call


def honest_signature(label):
    keypair = KeyPair.from_label(label)
    message = keccak256(label.encode())
    return keypair, message, keypair.sign(message)


class TestFixedBaseTable:
    """``g^s`` of a verify reads ``g``'s table; nothing secret ever does."""

    def test_secret_exponents_never_read_the_table(self, monkeypatch):
        keypair, message, signature = honest_signature("table-secret")
        fresh = KeyPair(b"table-secret-seed").sign(message)
        kernel = keys._kernel()
        assert isinstance(kernel, keys._Libcrypto)
        monkeypatch.setattr(kernel, "_table", _UnreadableTable())
        # Key generation and signing run with every entry unreadable...
        assert KeyPair(b"table-secret-seed").sign(message) == fresh
        assert keypair.sign(message) == signature
        # ...and a verify is refused at its first read.
        with pytest.raises(LookupError, match="the table was read"):
            verify_signature(signature, message)

    def test_secret_powers_stay_constant_time(self, monkeypatch):
        keypair, message, signature = honest_signature("table-consttime")
        assert verify_signature(signature, message)  # the key and table are warm
        kernel = keys._kernel()
        library = _RecordingLibrary(kernel._lib)
        monkeypatch.setattr(kernel, "_lib", library)
        KeyPair.from_label("table-consttime").sign(message)
        powers = [name for name in library.names if name.startswith("BN_mod")]
        assert powers == ["BN_mod_exp_mont_consttime"] * 2  # the key, the nonce
        del library.names[:]
        assert verify_signature(signature, message)
        # One product per non-zero 6-bit digit of an honest s, one more to
        # join the key half; no power of g.
        digits = sum(1 for shift in range(0, 516, 6) if signature.s >> shift & 63)
        assert library.names.count("BN_mod_mul_montgomery") == digits + 1
        assert library.names.count("BN_mod_exp2_mont") == 1
        assert "BN_mod_exp_mont" not in library.names
        assert "BN_mod_exp_mont_consttime" not in library.names

    def test_an_s_beyond_the_table_takes_one_more_power(self, monkeypatch):
        # No honest signer's s reaches 2^516, but a nonce of 1 001 bits
        # still makes a valid signature.
        keypair = KeyPair.from_label("table-beyond")
        message = keccak256(b"table-beyond")
        nonce = (1 << 1000) + 12345
        e = keys._hash_to_int(keys._int_to_bytes(pow(GENERATOR, nonce, GROUP_PRIME)), message)
        wide = Signature(e=e, s=(nonce + e * keypair._x) % GROUP_ORDER,
                         public_key=keypair.public_key)
        assert wide.s.bit_length() > 516
        assert verify_signature(wide, message)  # warm the key
        kernel = keys._kernel()
        library = _RecordingLibrary(kernel._lib)
        monkeypatch.setattr(kernel, "_lib", library)
        assert verify_signature(wide, message)
        assert library.names.count("BN_mod_exp_mont") == 1
        del library.names[:]
        forged = Signature(e=e, s=wide.s + 1, public_key=keypair.public_key)
        assert not verify_signature(forged, message)
        assert library.names.count("BN_mod_exp_mont") == 1

    def test_importing_the_module_binds_nothing(self):
        done = subprocess.run(
            [sys.executable, "-c", "import sys, repro.chain.keys as keys; "
             "print('ctypes' in sys.modules, keys._backend)"],
            env={**os.environ, "PYTHONPATH": SRC}, stdout=subprocess.PIPE, text=True,
            timeout=60, check=True)
        assert done.stdout.split() == ["False", "None"]

    def test_binding_builds_no_table_and_the_first_verify_one(self, monkeypatch):
        monkeypatch.setattr(keys, "_backend", None)
        kernel = keys._kernel()
        assert isinstance(kernel, keys._Libcrypto)
        assert kernel._table is None
        keypair, message, signature = honest_signature("table-lazy")
        assert kernel._table is None  # key generation and signing built none
        assert verify_signature(signature, message)
        assert len(kernel._table) == 86 * 64

    def test_two_first_verifies_build_one_table(self, monkeypatch):
        kernel = keys._Libcrypto()
        monkeypatch.setattr(keys, "_backend", kernel)
        signed = [honest_signature(f"table-race-{index}") for index in range(2)]
        build, built = kernel._build_table, []

        def slow_build():
            built.append(threading.get_ident())
            time.sleep(0.05)  # the other thread arrives while this one builds
            return build()

        kernel._build_table = slow_build
        barrier = threading.Barrier(len(signed))
        verdicts = []

        def first_verify(keypair, message, signature):
            barrier.wait(timeout=30)
            verdicts.append(verify_signature(signature, message))

        threads = [threading.Thread(target=first_verify, args=item) for item in signed]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert verdicts == [True, True]
        assert len(built) == 1

    def test_a_forked_child_verifies_with_the_inherited_table(self):
        keypair, message, signature = honest_signature("table-fork")
        assert verify_signature(signature, message)
        assert keys._kernel()._table is not None
        with multiprocessing.get_context("fork").Pool(1) as pool:
            inherited, same, built, verdict = pool.apply(
                _forked_table_verdict, (signature, message))
        assert inherited and same and verdict
        assert built == []


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

