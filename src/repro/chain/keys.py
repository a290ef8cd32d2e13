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
builtin ``pow`` if it cannot be bound; :func:`schnorr_backend` says which.  A
verify's ``g^s`` is a product of entries of a fixed-base table of ``g``'s
powers (Brickell-Gordon-McCurley-Wilson), built once per process on the first
verify; secret exponents (key generation, signing nonces) never index it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple, Union

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

#: The width of keccak-256, hence of an honest challenge ``e``, nonce and
#: private key: an honest ``s = k + x*e`` is about twice as wide.
_HASH_BITS = 256

#: ``g``'s fixed-base table reads ``s mod q`` in digits of this many bits...
_WINDOW_BITS = 6
#: ...over enough windows to cover an honest ``s < 2^513``: 86, so 516 bits.
_WINDOWS = -(-(2 * _HASH_BITS + 1) // _WINDOW_BITS)
_TABLE_BITS = _WINDOWS * _WINDOW_BITS


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
    """One thread's ``BN_CTX``, ``BIGNUM`` s and output buffer."""

    def __init__(self, lib, out) -> None:
        self._lib, self.out, self.ctx = lib, out, lib.BN_CTX_new()
        self.result, self.partial = lib.BN_new(), lib.BN_new()
        self.operands = tuple(lib.BN_new() for _ in range(5))

    def __del__(self) -> None:
        for bignum in (self.result, self.partial, *self.operands):
            self._lib.BN_free(bignum)
        self._lib.BN_CTX_free(self.ctx)


class _BuiltinPow:
    """The fallback when libcrypto cannot be bound: exact, ~14x slower."""

    def __init__(self, reason: str) -> None:
        self.name = f"builtin pow ({reason})"

    def generator_power(self, exponent: int) -> int:
        return pow(GENERATOR, exponent, GROUP_PRIME)

    def inverse(self, value: int) -> int:
        return pow(value, -1, GROUP_PRIME)

    def power(self, base: int, exponent: int) -> int:
        return pow(base, exponent, GROUP_PRIME)

    def commitment(self, s: int, e: int, inverse: int, inverse_high: int) -> int:
        # Splitting the exponents saves builtin ``pow`` no squaring.
        return pow(GENERATOR, s, GROUP_PRIME) * pow(inverse, e, GROUP_PRIME) % GROUP_PRIME


class _Libcrypto:
    """OpenSSL's Montgomery powers mod ``GROUP_PRIME``.  Only the calling
    thread's :class:`_Scratch` is written after the bind, except for the
    fixed-base table of ``g`` that the first verify builds under a lock and
    publishes whole, so ``ctypes`` may release the GIL and a forked child
    inherits both.  Generator exponents are reduced mod ``GROUP_ORDER``
    (exact: ``g``'s order divides it) first."""

    def __init__(self) -> None:
        import _hashlib
        import ctypes

        lib = ctypes.CDLL(_hashlib.__file__)  # AttributeError if built in
        ptr, num, buf = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p
        for name, restype, argtypes in (
                ("BN_new", ptr, ()), ("BN_CTX_new", ptr, ()), ("BN_MONT_CTX_new", ptr, ()),
                ("BN_bin2bn", ptr, (buf, num, ptr)), ("BN_bn2binpad", num, (ptr, buf, num)),
                ("BN_copy", ptr, (ptr,) * 2), ("BN_MONT_CTX_set", num, (ptr,) * 3),
                ("BN_to_montgomery", num, (ptr,) * 4), ("BN_mod_mul_montgomery", num, (ptr,) * 5),
                ("BN_mod_exp2_mont", num, (ptr,) * 8), ("BN_mod_exp_mont", num, (ptr,) * 6),
                ("BN_mod_inverse", ptr, (ptr,) * 4),
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
        #: ``None`` until the first verify, then :meth:`_build_table`'s entries
        #: and ``g^(2^_TABLE_BITS)``.
        self._table: Optional[Sequence[int]] = None
        self._table_lock = threading.Lock()
        self._generator_beyond = None

    def _load(self, bignum, value: int):
        data = _int_to_bytes(value)
        return self._lib.BN_bin2bn(data, len(data), bignum)

    def _scratch(self, *values: int) -> _Scratch:
        """This thread's scratch, its first operands loaded with ``values``."""
        if not hasattr(self._local, "scratch"):
            self._local.scratch = _Scratch(self._lib, self._buffer(GROUP_PRIME.bit_length() // 8))
        t = self._local.scratch
        for bignum, value in zip(t.operands, values):
            self._load(bignum, value)
        return t

    def _result(self, t: _Scratch) -> int:
        self._lib.BN_bn2binpad(t.result, t.out, len(t.out))
        return int.from_bytes(t.out.raw, "big")

    def _build_table(self) -> Tuple[Sequence[int], int]:
        """``g^(d * 2^(6k))`` in Montgomery form at index ``64k + d`` for each
        window ``k`` and digit ``d`` in 1..63 (one ``BN_mod_mul_montgomery``
        apiece) and Montgomery one at index 0; and ``g^(2^516)``, for the bits
        of ``s`` beyond them."""
        lib, mont, ctx = self._lib, self._mont, self._lib.BN_CTX_new()
        digits = 1 << _WINDOW_BITS
        table = tuple(lib.BN_new() for _ in range(_WINDOWS * digits))
        try:
            lib.BN_to_montgomery(table[0], self._load(table[0], 1), mont, ctx)
            lib.BN_to_montgomery(table[1], self._generator, mont, ctx)
            for row in range(0, _WINDOWS * digits, digits):
                if row:  # g^(2^(6k)) = g^(63 * 2^(6k-6)) * g^(2^(6k-6))
                    lib.BN_mod_mul_montgomery(table[row + 1], table[row - 1],
                                              table[row - digits + 1], mont, ctx)
                for index in range(row + 2, row + digits):
                    lib.BN_mod_mul_montgomery(table[index], table[index - 1], table[row + 1],
                                              mont, ctx)
        finally:
            lib.BN_CTX_free(ctx)
        return table, self._load(None, self.power(GENERATOR, 1 << _TABLE_BITS))

    def generator_power(self, exponent: int) -> int:
        """``g^exponent`` in constant time: the exponent may be secret."""
        t = self._scratch(exponent % GROUP_ORDER)
        self._lib.BN_mod_exp_mont_consttime(
            t.result, self._generator, t.operands[0], self._modulus, t.ctx, self._mont)
        return self._result(t)

    def inverse(self, value: int) -> int:
        """``value^-1`` for a public ``value`` in ``(0, P)``."""
        t = self._scratch(value)
        self._lib.BN_mod_inverse(t.result, t.operands[0], self._modulus, t.ctx)
        return self._result(t)

    def power(self, base: int, exponent: int) -> int:
        """``base^exponent`` for public ``base, exponent >= 0``."""
        t = self._scratch(base, exponent)
        self._lib.BN_mod_exp_mont(t.result, *t.operands[:2], self._modulus, t.ctx, self._mont)
        return self._result(t)

    def commitment(self, s: int, e: int, inverse: int, inverse_high: int) -> int:
        """``g^s * inverse^e`` for public ``s`` and ``e >= 0``, given
        ``inverse_high = inverse^(2^128)``.  ``g^(s mod q)`` is one Montgomery
        product per non-zero 6-bit digit of its low 516 bits with the table
        (times one ``BN_mod_exp_mont`` of ``g^(2^516)`` for the bits above,
        which no honest signer sets); ``e`` splits at bit 128 over the two
        inverses into one ``BN_mod_exp2_mont`` of 128 squarings, and one more
        product joins the halves and leaves Montgomery form."""
        table = self._table
        if table is None:
            with self._table_lock:
                if self._table is None:
                    table, self._generator_beyond = self._build_table()
                    self._table = table  # published last: who sees it sees both
            table = self._table
        s %= GROUP_ORDER
        half = _HASH_BITS // 2
        t = self._scratch(s >> _TABLE_BITS, inverse, inverse_high, e & ((1 << half) - 1),
                          e >> half)
        s_beyond, base, base_high, e_low, e_high = t.operands
        lib, modulus, ctx, mont = self._lib, self._modulus, t.ctx, self._mont
        product, digits = lib.BN_mod_mul_montgomery, 1 << _WINDOW_BITS
        if s >> _TABLE_BITS:
            lib.BN_mod_exp_mont(t.result, self._generator_beyond, s_beyond, modulus, ctx, mont)
            lib.BN_to_montgomery(t.result, t.result, mont, ctx)
        else:
            lib.BN_copy(t.result, table[0])
        for row in range(0, _WINDOWS * digits, digits):
            digit = s & (digits - 1)
            if digit:
                product(t.result, t.result, table[row + digit], mont, ctx)
            s >>= _WINDOW_BITS
        lib.BN_mod_exp2_mont(t.partial, base, e_low, base_high, e_high, modulus, ctx, mont)
        product(t.result, t.result, t.partial, mont, ctx)
        return self._result(t)


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


class _SenderKey(NamedTuple):
    """What a verify needs of a public key ``y`` besides ``y`` itself."""

    inverse: int  # y^-1 mod P
    inverse_high: int  # (y^-1)^(2^128) mod P, the base of e's high 128 bits
    address: str  # the checksummed address y hashes to


#: A :class:`_SenderKey` per public key: every verify needs one, senders
#: repeat, and one costs ~0.41 ms (the inverse 0.28 ms of it).  Its counters
#: surface through ``obs_cacheStats`` as ``schnorr_inverse``.
_INVERSE_CACHE = LRUCache(capacity=16384)


def inverse_cache() -> LRUCache:
    """The per-public-key inverse cache (for obs cache-stats registration)."""
    return _INVERSE_CACHE


def _sender_key(public_key: int) -> _SenderKey:
    """``public_key``'s :class:`_SenderKey`, memoized per key."""
    cached = _INVERSE_CACHE.get(public_key)
    if cached is None:
        kernel = _kernel()
        inverse = kernel.inverse(public_key)
        cached = _SenderKey(inverse, kernel.power(inverse, 1 << (_HASH_BITS // 2)),
                            address_from_public_key(public_key))
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
        The private seed bytes; :meth:`from_label` derives one from a
        human-readable label.
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


def verify_signature(signature: Signature, message_hash: bytes) -> bool:
    """Verify a Schnorr signature.

    Returns ``True`` when ``g^s == r * y^e`` for the reconstructed commitment
    ``r``; :func:`recover_address` names the key's address.
    """
    if len(message_hash) != 32:
        raise ValueError("verify expects a 32-byte message hash")
    y, e = signature.public_key, signature.e
    if not (1 < y < GROUP_PRIME):
        return False
    if not (0 <= e < 1 << _HASH_BITS):
        # Never equal to a keccak-256 digest (< 2^256 < q, so reducing it mod
        # GROUP_ORDER is a no-op): reject before any arithmetic.
        return False
    key = _sender_key(y)
    # g^s = g^(k + x*e) = r * y^e  =>  r = g^s * (y^-1)^e.
    r = _kernel().commitment(signature.s, e, key.inverse, key.inverse_high)
    return _hash_to_int(_int_to_bytes(r), message_hash) == e


def recover_address(signature: Signature, message_hash: bytes) -> str:
    """Return the signer address for a valid signature, else raise.

    Raises
    ------
    InvalidSignatureError
        If the signature does not verify.
    """
    if not verify_signature(signature, message_hash):
        raise InvalidSignatureError("signature does not verify")
    # The entry the verify just read, unless another thread has evicted it.
    key = _INVERSE_CACHE.peek(signature.public_key)
    return address_from_public_key(signature.public_key) if key is None else key.address
