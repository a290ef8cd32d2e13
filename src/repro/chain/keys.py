"""Key pairs, addresses and Ed25519 signatures.

Ethereum signs with ECDSA over secp256k1; accounts here sign with Ed25519
(RFC 8032), a Schnorr scheme over a twisted Edwards curve.  The scheme
provides what the system actually relies on:

* a private key that only its holder knows,
* a public key and a 20-byte Ethereum-style address derived from it,
* signatures over transaction hashes that anyone can verify against the
  sender's address without the private key.

Signing is deterministic (RFC 8032 derives the nonce from the key and the
message), so test vectors are stable.

Signatures are made and checked by the ``libcrypto`` CPython's ``_hashlib``
loaded, or by the pure-Python RFC 8032 code below if it cannot be bound;
:func:`ed25519_backend` says which.  Both see only what
:func:`verify_signature` lets through: a key that
:func:`acceptable_public_key` accepts and a response ``S`` below the group
order ``L``.
"""

from __future__ import annotations

import functools
import hashlib
import threading
import weakref
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.errors import InvalidSignatureError
from repro.utils.encoding import from_hex, to_hex
from repro.utils.hashing import keccak256

ADDRESS_BYTES = 20

#: The field prime, the prime order of the base point, and the curve's ``d``.
_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493
_D = -121665 * pow(121666, -1, _P) % _P
_SQRT_M1 = pow(2, (_P - 1) // 4, _P)
#: A 32-byte encoding is ``y`` in its low 255 bits and the sign of ``x`` on top.
_Y_BITS = (1 << 255) - 1

#: The ``y`` of a point of order 8.  It, ``_P`` minus it, 0 (order 4), 1 (the
#: identity) and ``_P - 1`` (order 2) are the ``y`` of every point of small
#: order, whose keys libsodium refuses (its blocklist, either sign bit).
_ORDER_8_Y = 2707385501144840649318225287225658788936804267575313519463743609750303402022
_SMALL_ORDER_Y = frozenset((0, 1, _P - 1, _ORDER_8_Y, _P - _ORDER_8_Y))

#: OpenSSL's ``EVP_PKEY_ED25519`` (``NID_ED25519``).
_EVP_PKEY_ED25519 = 1087


def _encoded(value: int) -> bytes:
    """The 32 little-endian bytes RFC 8032 writes for a key, ``R`` or ``S``."""
    return value.to_bytes(32, "little")  # OverflowError outside [0, 2^256)


def _decoded(data: bytes) -> int:
    """The integer :class:`Signature` keeps for 32 encoded bytes."""
    if len(data) != 32:
        raise ValueError(f"an Ed25519 key or scalar is 32 bytes, got {len(data)}")
    return int.from_bytes(data, "little")


def acceptable_public_key(public_key: int) -> bool:
    """Whether a key may reach either backend: 32 bytes, a canonical ``y``
    (below ``_P``), and not a small-order point.  OpenSSL's verify, like the
    bare RFC 8032 equation, accepts the identity key (``01`` then 31 zero
    bytes) with ``R`` the identity and ``S = 0`` for any message, so without
    this check anyone could sign for that key's address."""
    if not 0 <= public_key < 1 << 256:
        return False
    y = public_key & _Y_BITS
    return y < _P and y not in _SMALL_ORDER_Y


# -- the pure-Python fallback (RFC 8032, section 5.1) --------------------------

#: A point in extended coordinates ``(X, Y, Z, T)``: ``x = X/Z``, ``y = Y/Z``,
#: ``x*y = T/Z``.
_Point = Tuple[int, int, int, int]


def _add(first: _Point, second: _Point) -> _Point:
    """The sum of two points (RFC 8032 5.1.4; also doubles)."""
    x1, y1, z1, t1 = first
    x2, y2, z2, t2 = second
    a, b = (y1 - x1) * (y2 - x2) % _P, (y1 + x1) * (y2 + x2) % _P
    c, d = 2 * t1 * t2 * _D % _P, 2 * z1 * z2 % _P
    e, f, g, h = b - a, d - c, d + c, b + a
    return e * f % _P, g * h % _P, f * g % _P, e * h % _P


def _multiply(scalar: int, point: _Point) -> _Point:
    """``[scalar] point`` by double-and-add: not constant-time."""
    result = (0, 1, 1, 0)
    while scalar:
        if scalar & 1:
            result = _add(result, point)
        point = _add(point, point)
        scalar >>= 1
    return result


def _compress(point: _Point) -> bytes:
    x, y, z, _ = point
    inverse = pow(z, -1, _P)
    x, y = x * inverse % _P, y * inverse % _P
    return _encoded(y | (x & 1) << 255)


def _decompress(encoded: int) -> Optional[_Point]:
    """The point an encoding with a canonical ``y`` names, or ``None``."""
    y, sign = encoded & _Y_BITS, encoded >> 255
    square = (y * y - 1) * pow(_D * y * y + 1, -1, _P) % _P
    x = pow(square, (_P + 3) // 8, _P)
    if (x * x - square) % _P:
        x = x * _SQRT_M1 % _P
    if (x * x - square) % _P or (x == 0 and sign):
        return None
    if x & 1 != sign:
        x = _P - x
    return x, y, 1, x * y % _P


_BASE = _decompress(4 * pow(5, -1, _P) % _P)


def _scalar(*parts: bytes) -> int:
    """SHA-512 of ``parts``, little-endian, mod ``_L``."""
    return int.from_bytes(hashlib.sha512(b"".join(parts)).digest(), "little") % _L


class _PurePython:
    """RFC 8032 in Python integers: the fallback when libcrypto cannot be
    bound, and the oracle of the differential test.  Exact, but two orders
    of magnitude slower, and not constant-time."""

    def __init__(self, reason: str) -> None:
        self.name = f"pure python ({reason})"

    @staticmethod
    def _expand(seed: bytes) -> Tuple[int, bytes]:
        """The secret scalar (clamped) and the nonce prefix of a seed."""
        digest = hashlib.sha512(seed).digest()
        secret = int.from_bytes(digest[:32], "little") & ((1 << 254) - 8) | 1 << 254
        return secret, digest[32:]

    def private_key(self, seed: bytes) -> bytes:
        """The key a :class:`KeyPair` signs with: the seed itself."""
        return seed

    def free(self, key: bytes) -> None:
        """Nothing to free: the key is the seed."""

    def public_key(self, seed: bytes) -> bytes:
        return _compress(_multiply(self._expand(seed)[0], _BASE))

    def sign(self, seed: bytes, message: bytes) -> bytes:
        secret, prefix = self._expand(seed)
        public_key = _compress(_multiply(secret, _BASE))
        nonce = _scalar(prefix, message)
        commitment = _compress(_multiply(nonce, _BASE))
        response = (nonce + _scalar(commitment, public_key, message) * secret) % _L
        return commitment + _encoded(response)

    def verify(self, public_key: bytes, signature: bytes, message: bytes) -> bool:
        """``[S]B - [k]A``, compressed, against ``R``'s bytes, as OpenSSL's
        ``ossl_ed25519_verify`` compares them."""
        point = _decompress(int.from_bytes(public_key, "little"))
        if point is None:
            return False
        x, y, z, t = point
        challenge = _scalar(signature[:32], public_key, message)
        check = _add(_multiply(int.from_bytes(signature[32:], "little"), _BASE),
                     _multiply(challenge, (_P - x, y, z, _P - t)))
        return _compress(check) == signature[:32]


# -- libcrypto ------------------------------------------------------------------

def _checked(result, func, args):
    """``errcheck`` of the bound calls: NULL or 0 means libcrypto failed."""
    if not result:
        raise MemoryError(f"libcrypto {func.__name__} failed")
    return result


class _Context:
    """One thread's ``EVP_MD_CTX``, freed with the thread's local storage."""

    def __init__(self, lib) -> None:
        self._lib, self.pointer = lib, lib.EVP_MD_CTX_new()

    def __del__(self) -> None:
        self._lib.EVP_MD_CTX_free(self.pointer)


class _Libcrypto:
    """Ed25519 through OpenSSL's ``EVP`` one-shot calls.  A verify parses its
    key (one ``EVP_PKEY`` a call, freed before it returns: no per-key state);
    a :class:`KeyPair` parses its private key once and signs with it.  Every
    call runs on the calling thread's ``EVP_MD_CTX``, so ``ctypes`` may
    release the GIL and a forked child inherits nothing half-written."""

    def __init__(self) -> None:
        import _hashlib
        import ctypes

        lib = ctypes.CDLL(_hashlib.__file__)  # AttributeError if built in
        ptr, num, buf, size = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_size_t
        for name, restype, argtypes in (
                ("EVP_PKEY_new_raw_private_key", ptr, (num, ptr, buf, size)),
                ("EVP_PKEY_new_raw_public_key", ptr, (num, ptr, buf, size)),
                ("EVP_PKEY_get_raw_public_key", num, (ptr, buf, ctypes.POINTER(size))),
                ("EVP_MD_CTX_new", ptr, ()), ("EVP_MD_CTX_reset", num, (ptr,)),
                ("EVP_DigestSignInit", num, (ptr,) * 5),
                ("EVP_DigestSign", num, (ptr, buf, ctypes.POINTER(size), buf, size)),
                ("EVP_DigestVerifyInit", num, (ptr,) * 5),
                ("EVP_DigestVerify", num, (ptr, buf, size, buf, size)),
                ("OpenSSL_version", buf, (num,)), ("ERR_clear_error", None, ()),
                ("EVP_PKEY_free", None, (ptr,)), ("EVP_MD_CTX_free", None, (ptr,))):
            func = getattr(lib, name)
            func.restype, func.argtypes = restype, argtypes
            if restype is not None and name != "EVP_DigestVerify":
                func.errcheck = _checked
        self._lib, self._local = lib, threading.local()
        self._buffer, self._size, self._reference = \
            ctypes.create_string_buffer, ctypes.c_size_t, ctypes.byref
        self.name = f"libcrypto ({lib.OpenSSL_version(0).decode()})"

    def _context(self):
        """This thread's ``EVP_MD_CTX``, reset: a context initialised again
        without a reset keeps the key it was first given."""
        context = getattr(self._local, "context", None)
        if context is None:
            context = self._local.context = _Context(self._lib)
        self._lib.EVP_MD_CTX_reset(context.pointer)
        return context.pointer

    def private_key(self, seed: bytes) -> int:
        """A new ``EVP_PKEY`` for ``seed``: the caller frees it with :meth:`free`."""
        return self._lib.EVP_PKEY_new_raw_private_key(_EVP_PKEY_ED25519, None, seed, 32)

    def free(self, key: int) -> None:
        self._lib.EVP_PKEY_free(key)

    def public_key(self, key: int) -> bytes:
        """The raw public key of a :meth:`private_key`."""
        out, length = self._buffer(32), self._size(32)
        self._lib.EVP_PKEY_get_raw_public_key(key, out, self._reference(length))
        return out.raw

    def sign(self, key: int, message: bytes) -> bytes:
        """Sign ``message`` with a :meth:`private_key`."""
        lib, context = self._lib, self._context()
        lib.EVP_DigestSignInit(context, None, None, None, key)
        out, length = self._buffer(64), self._size(64)
        lib.EVP_DigestSign(context, out, self._reference(length), message, len(message))
        return out.raw

    def verify(self, public_key: bytes, signature: bytes, message: bytes) -> bool:
        lib = self._lib
        key = lib.EVP_PKEY_new_raw_public_key(_EVP_PKEY_ED25519, None, public_key, 32)
        try:
            context = self._context()
            lib.EVP_DigestVerifyInit(context, None, None, None, key)
            if lib.EVP_DigestVerify(context, signature, 64, message, len(message)) == 1:
                return True
            lib.ERR_clear_error()  # a refusal leaves its reason queued
            return False
        finally:
            lib.EVP_PKEY_free(key)


#: ``None`` until the first key, signature or verify, then the backend every
#: one runs on.
_backend: Union[None, _Libcrypto, _PurePython] = None
_BIND_LOCK = threading.Lock()


def _kernel() -> Union[_Libcrypto, _PurePython]:
    """The Ed25519 backend, bound on first use."""
    global _backend
    if _backend is None:
        with _BIND_LOCK:
            try:
                _backend = _backend or _Libcrypto()
            except (ImportError, OSError, AttributeError) as exc:
                _backend = _PurePython(f"{type(exc).__name__}: {exc}")
    return _backend


def ed25519_backend() -> str:
    """``libcrypto (<OpenSSL version>)``, or ``pure python (<why not>)``."""
    return _kernel().name


@dataclass(frozen=True)
class Signature:
    """An Ed25519 signature ``(commitment e, response s)`` plus the public key.

    ``e`` is the commitment point ``R`` and ``public_key`` the point ``A``,
    each as the little-endian integer of its 32-byte RFC 8032 encoding; ``s``
    is the scalar ``S``.  The public key travels with the signature (as it
    does implicitly with ECDSA recovery in Ethereum) so that the verifier can
    both check the signature and confirm that the key hashes to the claimed
    sender address.
    """

    e: int
    s: int
    public_key: int

    def to_dict(self) -> dict:
        """JSON-serializable representation: each part's 32 RFC 8032 bytes
        in hex.  Raises ``OverflowError`` for a part outside ``[0, 2^256)``."""
        return {
            "e": to_hex(_encoded(self.e)),
            "s": to_hex(_encoded(self.s)),
            "public_key": to_hex(_encoded(self.public_key)),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Signature":
        """Reconstruct a signature from :meth:`to_dict` output."""
        return cls(
            e=_decoded(from_hex(payload["e"])),
            s=_decoded(from_hex(payload["s"])),
            public_key=_decoded(from_hex(payload["public_key"])),
        )


def address_from_public_key(public_key: int) -> str:
    """Derive a checksummed 20-byte address from a public key.

    Mirrors Ethereum: the address is the last 20 bytes of the keccak of the
    32-byte public key, rendered with an EIP-55-style mixed-case checksum.
    """
    digest = keccak256(_encoded(public_key))
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
        The private bytes; the Ed25519 seed is their keccak, so any length
        will do.  :meth:`from_label` derives them from a human-readable label.
    """

    def __init__(self, private_key: bytes) -> None:
        if len(private_key) == 0:
            raise ValueError("private key must be non-empty bytes")
        self._private_key = bytes(private_key)
        seed = keccak256(b"oflw3-priv" + self._private_key)
        backend = _kernel()
        # Parsed once, here, and freed when this key pair is collected.
        key = backend.private_key(seed)
        weakref.finalize(self, backend.free, key)
        self._sign = functools.partial(backend.sign, key)
        self.public_key = _decoded(backend.public_key(key))
        self.address = address_from_public_key(self.public_key)

    def __reduce__(self):
        """Copy and pickle by private key: a copy parses its own ``EVP_PKEY``."""
        return type(self), (self._private_key,)

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
        """Produce a deterministic Ed25519 signature over a 32-byte hash."""
        if len(message_hash) != 32:
            raise ValueError("sign expects a 32-byte message hash")
        signed = self._sign(message_hash)
        return Signature(e=_decoded(signed[:32]), s=_decoded(signed[32:]),
                         public_key=self.public_key)


def verify_signature(signature: Signature, message_hash: bytes) -> bool:
    """Verify an Ed25519 signature over a 32-byte hash.

    A key :func:`acceptable_public_key` refuses, an ``S`` at or above ``L``
    or an ``e`` wider than 32 bytes is rejected before any curve
    arithmetic; :func:`recover_address` names the key's address.
    """
    if len(message_hash) != 32:
        raise ValueError("verify expects a 32-byte message hash")
    if not (acceptable_public_key(signature.public_key) and 0 <= signature.s < _L
            and 0 <= signature.e < 1 << 256):
        return False
    return _kernel().verify(_encoded(signature.public_key),
                            _encoded(signature.e) + _encoded(signature.s), message_hash)


def signed_by(signature: Signature, message_hash: bytes, address: str) -> bool:
    """Whether ``signature`` verifies over ``message_hash`` under a key whose
    address is ``address``, given in lowercase (``0x`` then 40 hex digits).

    The sender check of a transaction: the key's keccak is compared with the
    address's bytes, so no checksum is rendered.
    """
    return (verify_signature(signature, message_hash) and
            keccak256(_encoded(signature.public_key))[-ADDRESS_BYTES:].hex() == address[2:])


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
