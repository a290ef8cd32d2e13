"""Key pairs, addresses and Schnorr signatures.

Ethereum uses secp256k1 ECDSA; implementing elliptic-curve arithmetic from
scratch adds no value to the reproduction, so accounts here use **Schnorr
signatures over a multiplicative group modulo a safe prime** (the 2048-bit
MODP group from RFC 3526).  The scheme provides what the system actually
relies on:

* a private key that only its holder knows,
* a public key and a 20-byte Ethereum-style address derived from it,
* signatures over transaction hashes that anyone can verify against the
  sender's address without the private key.

Signing is deterministic (the nonce is derived from the key and message), so
test vectors are stable.

Group powers run on the ``libcrypto`` CPython's ``_hashlib`` loaded, or on the
builtin ``pow`` if it cannot be bound; :func:`schnorr_backend` says which.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import InvalidSignatureError
from repro.utils.cache import LRUCache
from repro.utils.encoding import from_hex, to_hex
from repro.utils.hashing import keccak256

# RFC 3526 group 14 (2048-bit MODP).  P is a safe prime: P = 2*Q + 1.
_P_HEX = (
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF"
)

GROUP_PRIME = int(_P_HEX, 16)
GROUP_ORDER = (GROUP_PRIME - 1) // 2
GENERATOR = 2

ADDRESS_BYTES = 20


def _int_to_bytes(value: int) -> bytes:
    """Minimal big-endian byte representation of a non-negative integer."""
    if value == 0:
        return b"\x00"
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def _hash_to_int(*parts: bytes) -> int:
    """Hash arbitrary byte strings to an integer modulo the group order."""
    return int.from_bytes(keccak256(b"".join(parts)), "big") % GROUP_ORDER


def _checked(result, func, args):
    """``errcheck`` of the bound calls: NULL or 0 means libcrypto failed."""
    if not result:
        raise MemoryError(f"libcrypto {func.__name__} failed")
    return result


class _Scratch:
    """One thread's ``BN_CTX``, operand ``BIGNUM`` s and output buffer."""

    def __init__(self, lib, out) -> None:
        self._lib, self.out, self.ctx = lib, out, lib.BN_CTX_new()
        self.result, self.s, self.base, self.e = (lib.BN_new() for _ in range(4))

    def __del__(self) -> None:
        for bignum in (self.result, self.s, self.base, self.e):
            self._lib.BN_free(bignum)
        self._lib.BN_CTX_free(self.ctx)


class _BuiltinPow:
    """The fallback when libcrypto cannot be bound: exact, ~14x slower."""

    def __init__(self, reason: str) -> None:
        self.name = f"builtin pow ({reason})"

    def generator_power(self, exponent: int) -> int:
        return pow(GENERATOR, exponent, GROUP_PRIME)

    def two_base_power(self, s: int, base: int, e: int) -> int:
        return pow(GENERATOR, s, GROUP_PRIME) * pow(base, e, GROUP_PRIME) % GROUP_PRIME


class _Libcrypto:
    """OpenSSL's Montgomery powers mod ``GROUP_PRIME``.  Only the calling
    thread's :class:`_Scratch` is written after the bind, so ``ctypes`` may
    release the GIL and a forked child inherits it.  Generator exponents are
    reduced mod ``GROUP_ORDER`` (exact: ``g``'s order divides it) first."""

    def __init__(self) -> None:
        import _hashlib
        import ctypes

        lib = ctypes.CDLL(_hashlib.__file__)  # AttributeError if built in
        ptr, num, buf = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p
        for name, restype, argtypes in (
                ("BN_new", ptr, ()), ("BN_CTX_new", ptr, ()), ("BN_MONT_CTX_new", ptr, ()),
                ("BN_bin2bn", ptr, (buf, num, ptr)), ("BN_bn2binpad", num, (ptr, buf, num)),
                ("BN_MONT_CTX_set", num, (ptr,) * 3), ("BN_mod_exp2_mont", num, (ptr,) * 8),
                ("BN_mod_exp_mont_consttime", num, (ptr,) * 6), ("OpenSSL_version", buf, (num,)),
                ("BN_free", None, (ptr,)), ("BN_CTX_free", None, (ptr,))):
            func = getattr(lib, name)
            func.restype, func.argtypes = restype, argtypes
            if restype is not None:
                func.errcheck = _checked
        self._lib, self._local, self._buffer = lib, threading.local(), ctypes.create_string_buffer
        self.name = f"libcrypto ({lib.OpenSSL_version(0).decode()})"
        self._modulus, self._generator = self._load(None, GROUP_PRIME), self._load(None, GENERATOR)
        self._mont, ctx = lib.BN_MONT_CTX_new(), lib.BN_CTX_new()
        try:
            lib.BN_MONT_CTX_set(self._mont, self._modulus, ctx)
        finally:
            lib.BN_CTX_free(ctx)

    def _load(self, bignum, value: int):
        data = _int_to_bytes(value)
        return self._lib.BN_bin2bn(data, len(data), bignum)

    def _power(self, func, *exponents_and_bases: int) -> int:
        """``func(g, s[, base, e])`` on this thread's scratch, as an int."""
        if not hasattr(self._local, "scratch"):
            self._local.scratch = _Scratch(self._lib, self._buffer(GROUP_PRIME.bit_length() // 8))
        t = self._local.scratch
        operands = (t.s, t.base, t.e)[:len(exponents_and_bases)]
        for bignum, value in zip(operands, exponents_and_bases):
            self._load(bignum, value)
        func(t.result, self._generator, *operands, self._modulus, t.ctx, self._mont)
        self._lib.BN_bn2binpad(t.result, t.out, len(t.out))
        return int.from_bytes(t.out.raw, "big")

    def generator_power(self, exponent: int) -> int:
        """``g^exponent`` in constant time: the exponent may be secret."""
        return self._power(self._lib.BN_mod_exp_mont_consttime, exponent % GROUP_ORDER)

    def two_base_power(self, s: int, base: int, e: int) -> int:
        """``g^s * base^e`` in one call, for public ``s`` and ``base, e >= 0``."""
        return self._power(self._lib.BN_mod_exp2_mont, s % GROUP_ORDER, base, e)


#: ``None`` until the first power, then the kernel every power runs on.
_backend: Union[None, _Libcrypto, _BuiltinPow] = None
_BIND_LOCK = threading.Lock()


def _kernel() -> Union[_Libcrypto, _BuiltinPow]:
    """The power kernel, bound on first use."""
    global _backend
    if _backend is None:
        with _BIND_LOCK:
            try:
                _backend = _backend or _Libcrypto()
            except (ImportError, OSError, AttributeError) as exc:
                _backend = _BuiltinPow(f"{type(exc).__name__}: {exc}")
    return _backend


def schnorr_backend() -> str:
    """``libcrypto (<OpenSSL version>)``, or ``builtin pow (<why not>)``."""
    return _kernel().name


#: ``y^-1 mod P`` per public key: every verify needs it, senders repeat, and
#: an inverse is ~0.4 ms.  Its counters surface through ``obs_cacheStats``.
_INVERSE_CACHE = LRUCache(capacity=16384)


def inverse_cache() -> LRUCache:
    """The per-public-key inverse cache (for obs cache-stats registration)."""
    return _INVERSE_CACHE


def _inverse_of(public_key: int) -> int:
    """``public_key^-1 mod GROUP_PRIME``, memoized per key."""
    cached = _INVERSE_CACHE.get(public_key)
    if cached is None:
        cached = pow(public_key, -1, GROUP_PRIME)
        _INVERSE_CACHE.put(public_key, cached)
    return cached


@dataclass(frozen=True)
class Signature:
    """A Schnorr signature ``(commitment e, response s)`` plus the public key.

    The public key travels with the signature (as it does implicitly with
    ECDSA recovery in Ethereum) so that the verifier can both check the
    signature and confirm that the key hashes to the claimed sender address.
    """

    e: int
    s: int
    public_key: int

    def to_dict(self) -> dict:
        """JSON-serializable representation (hex-encoded components)."""
        return {
            "e": to_hex(_int_to_bytes(self.e)),
            "s": to_hex(_int_to_bytes(self.s)),
            "public_key": to_hex(_int_to_bytes(self.public_key)),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Signature":
        """Reconstruct a signature from :meth:`to_dict` output."""
        return cls(
            e=int.from_bytes(from_hex(payload["e"]), "big"),
            s=int.from_bytes(from_hex(payload["s"]), "big"),
            public_key=int.from_bytes(from_hex(payload["public_key"]), "big"),
        )


def address_from_public_key(public_key: int) -> str:
    """Derive a checksummed 20-byte address from a public key.

    Mirrors Ethereum: the address is the last 20 bytes of the hash of the
    public key, rendered with an EIP-55-style mixed-case checksum.
    """
    digest = keccak256(_int_to_bytes(public_key))
    return to_checksum_address(to_hex(digest[-ADDRESS_BYTES:]))


def to_checksum_address(address: str) -> str:
    """Apply an EIP-55-style mixed-case checksum to a hex address."""
    body = address.lower().replace("0x", "")
    if len(body) != ADDRESS_BYTES * 2:
        raise ValueError(f"address must be {ADDRESS_BYTES} bytes: {address!r}")
    int(body, 16)  # validates hex characters
    digest = keccak256(body.encode("ascii")).hex()
    chars = [
        char.upper() if char.isalpha() and int(digest[i], 16) >= 8 else char
        for i, char in enumerate(body)
    ]
    return "0x" + "".join(chars)


class KeyPair:
    """A private/public key pair able to sign message hashes.

    Parameters
    ----------
    private_key:
        Optional 32-byte private seed.  When omitted, the caller should use
        :meth:`generate` with an RNG for fresh keys; deterministic tests pass
        explicit seeds.
    """

    def __init__(self, private_key: bytes) -> None:
        if len(private_key) == 0:
            raise ValueError("private key must be non-empty bytes")
        self._private_seed = bytes(private_key)
        self._x = _hash_to_int(b"oflw3-priv", self._private_seed) or 1
        self.public_key = _kernel().generator_power(self._x)
        self.address = address_from_public_key(self.public_key)

    # -- construction -------------------------------------------------------

    @classmethod
    def generate(cls, rng=None) -> "KeyPair":
        """Create a key pair from 32 random bytes drawn from ``rng``."""
        import numpy as np

        generator = rng or np.random.default_rng()
        seed = bytes(int(b) for b in generator.integers(0, 256, size=32))
        return cls(seed)

    @classmethod
    def from_label(cls, label: str) -> "KeyPair":
        """Derive a stable key pair from a human-readable label.

        Used by tests and examples to create named actors ("owner-3",
        "buyer") whose addresses are reproducible across runs.
        """
        return cls(keccak256(b"oflw3-label:" + label.encode("utf-8")))

    # -- signing ------------------------------------------------------------

    def sign(self, message_hash: bytes) -> Signature:
        """Produce a deterministic Schnorr signature over a 32-byte hash."""
        if len(message_hash) != 32:
            raise ValueError("sign expects a 32-byte message hash")
        nonce = _hash_to_int(b"oflw3-nonce", self._private_seed, message_hash) or 1
        commitment = _kernel().generator_power(nonce)
        challenge = _hash_to_int(_int_to_bytes(commitment), message_hash)
        response = (nonce + challenge * self._x) % GROUP_ORDER
        return Signature(e=challenge, s=response, public_key=self.public_key)

    def export_private_seed(self) -> bytes:
        """Return the raw private seed (used by wallet import/export flows)."""
        return self._private_seed


def verify_signature(signature: Signature, message_hash: bytes, address: Optional[str] = None) -> bool:
    """Verify a Schnorr signature; optionally also check the sender address.

    Returns ``True`` when ``g^s == r * y^e`` for the reconstructed commitment
    ``r`` and, if ``address`` is given, the public key hashes to it.
    """
    if len(message_hash) != 32:
        raise ValueError("verify expects a 32-byte message hash")
    y = signature.public_key
    if not (1 < y < GROUP_PRIME):
        return False
    if not (0 <= signature.e < GROUP_ORDER):
        # Never equal to a hash reduced mod GROUP_ORDER: reject before any arithmetic.
        return False
    # g^s = g^(k + x*e) = r * y^e  =>  r = g^s * (y^-1)^e, one two-base power.
    r = _kernel().two_base_power(signature.s, _inverse_of(y), signature.e)
    expected_challenge = _hash_to_int(_int_to_bytes(r), message_hash)
    if expected_challenge != signature.e:
        return False
    if address is not None and address_from_public_key(y) != to_checksum_address(address):
        return False
    return True


def recover_address(signature: Signature, message_hash: bytes) -> str:
    """Return the signer address for a valid signature, else raise.

    Raises
    ------
    InvalidSignatureError
        If the signature does not verify.
    """
    if not verify_signature(signature, message_hash):
        raise InvalidSignatureError("signature does not verify")
    return address_from_public_key(signature.public_key)
