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
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional

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


class _FixedBaseComb:
    """Fixed-base exponentiation for the group generator, 8-bit windows.

    ``pow(g, exp, P)`` performs ~``bits(exp)`` squarings every call even
    though ``g`` never changes.  Row ``i`` of the table holds
    ``g^(d * 256^i)`` for every byte value ``d = 1..255``, so a power is one
    table multiplication per non-zero byte of the exponent and no squaring
    at all.

    The table is fixed at :attr:`ROWS` rows, i.e. exponents below ``2^512``:
    an honest ``s = k + e*x`` with ``k, e, x < 2^256`` is always in range,
    and so is every key-pair and nonce power.  Anything still larger after
    the reduction modulo the base's order goes to the builtin ``pow``, so a
    hostile signature can neither grow the table past 64 * 255 entries
    (~4.3 MB) nor change a result: :meth:`pow` is total and bit-identical
    to ``pow``.  Rows are built lazily, on first touch and never at import
    (~3 ms a row, ~0.2 s for all 64): a process that never verifies builds
    nothing, one that only derives key pairs builds 32.
    """

    ROWS = 64

    def __init__(self, base: int, modulus: int, base_order: int) -> None:
        self.base = base
        self.modulus = modulus
        #: Multiplicative order of ``base`` (i.e. ``base^order == 1``).
        #: Reducing modulo it preserves the result exactly and brings an
        #: honest-sized exponent that merely had a multiple of the order
        #: added back into the table's range.
        self.base_order = base_order
        #: ``_rows[i][d-1] == base^(d * 256^i) mod P`` for digits 1..255.
        self._rows: list = []
        #: ``base^(256^len(_rows))`` -- the generator of the next row.
        self._next_row_base = base % modulus
        #: Rows are appended under this lock, so two threads on first use
        #: build each row once; readers only check ``len(_rows)``.
        self._build_lock = threading.Lock()

    def _extend_to(self, row_count: int) -> None:
        modulus = self.modulus
        with self._build_lock:
            while len(self._rows) < row_count:
                cur = self._next_row_base
                row = [cur]
                for _ in range(254):
                    row.append(row[-1] * cur % modulus)
                self._next_row_base = row[-1] * cur % modulus
                self._rows.append(row)

    def pow(self, exponent: int) -> int:
        """``base ** exponent mod modulus``, bit-identical to ``pow``."""
        if exponent >= self.base_order:
            exponent %= self.base_order
        if exponent < 0 or exponent >> (8 * self.ROWS):
            return pow(self.base, exponent, self.modulus)
        # One immutable little-endian snapshot: byte i selects from row i.
        data = exponent.to_bytes((exponent.bit_length() + 7) // 8, "little")
        if len(self._rows) < len(data):
            self._extend_to(len(data))
        modulus = self.modulus
        result = 1
        for row, byte in zip(self._rows, data):
            if byte:
                result = result * row[byte - 1] % modulus
        return result


#: Shared comb table for the group generator (every signature and key pair
#: exponentiates the same base, so one process-wide table serves them all;
#: a verify worker forked before the first verify builds its own copy).
#: ``GENERATOR``'s multiplicative order divides ``GROUP_ORDER`` -- the
#: generator is a quadratic residue of the safe prime, and
#: ``pow(GENERATOR, GROUP_ORDER, GROUP_PRIME) == 1`` (pinned by
#: ``tests/chain/test_hotpaths.py``) -- so exponent reduction is exact.
#: Empty until the first power is taken.
_GENERATOR_COMB = _FixedBaseComb(GENERATOR, GROUP_PRIME, GROUP_ORDER)

#: Cache of ``y^-1 mod P`` per public key: verification needs the inverse on
#: every call, senders repeat across transactions, and the inverse of a
#: 2048-bit element is ~0.4 ms.  The shared storage ``LRUCache`` evicts the
#: least-recently-used key instead of the old clear-when-full dict, so a
#: long loadgen run over many distinct senders keeps its hot keys warm, and
#: the hit/miss/eviction counters surface through ``obs_cacheStats``.
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


class _LimLeeComb:
    """Single-table Lim-Lee comb: ``base^e`` for ``0 <= e < 2^256``.

    The 256-bit exponent is laid out as 8 teeth of 32 columns.  One table of
    255 entries holds the product of ``base^(2^(32*i))`` over every non-empty
    subset of teeth, so a power walks the 32 columns once: one squaring and
    at most one table multiplication per column, instead of the ~256
    squarings and ~50 multiplications of the builtin sliding window.  The
    whole table is 255 group elements (~77 kB); the generator's byte-window
    :class:`_FixedBaseComb` needs no squarings and is about twice as fast,
    but over the same range it holds 8 160 (~2.1 MB) -- affordable once for
    the generator, not once per hot sender.

    Exponents outside the range go to the builtin, so :meth:`pow` is total
    and bit-identical to ``pow(base, e, modulus)``.
    """

    TEETH = 8
    COLUMNS = 32
    EXPONENT_BITS = TEETH * COLUMNS
    _BITS_FORMAT = f"0{EXPONENT_BITS}b"

    __slots__ = ("base", "modulus", "_table")

    def __init__(self, base: int, modulus: int) -> None:
        self.base = base
        self.modulus = modulus
        #: ``_table[m]`` = product of ``base^(2^(COLUMNS*i))`` over set bits
        #: ``i`` of ``m``: each entry is its highest tooth times the entry
        #: without that tooth.
        table = [1] * (1 << self.TEETH)
        tooth = base % modulus
        for index in range(self.TEETH):
            bit = 1 << index
            table[bit] = tooth
            for rest in range(1, bit):
                table[bit | rest] = tooth * table[rest] % modulus
            if index + 1 < self.TEETH:
                for _ in range(self.COLUMNS):
                    tooth = tooth * tooth % modulus
        self._table = table

    def pow(self, exponent: int) -> int:
        """``base ** exponent mod modulus``, bit-identical to ``pow``."""
        if exponent < 0 or exponent >> self.EXPONENT_BITS:
            return pow(self.base, exponent, self.modulus)
        # MSB-first binary text: the stride slice ``bits[k::COLUMNS]`` reads
        # one bit from each tooth (highest tooth first) at column
        # ``COLUMNS - 1 - k``, i.e. exactly that column's table index.
        bits = format(exponent, self._BITS_FORMAT)
        table = self._table
        modulus = self.modulus
        columns = self.COLUMNS
        result = 1
        for k in range(columns):
            result = result * result % modulus
            index = int(bits[k::columns], 2)
            if index:
                result = result * table[index] % modulus
        return result


#: A public key's ``(y^-1)^e`` table is built on this sighting.  One-shot
#: (often hostile) keys stay on the builtin ``pow`` -- a table costs about
#: two builtin powers to build -- while real senders, who repeat, go
#: table-fast from their second signature on.
_KEY_COMB_PROMOTION_SIGHTINGS = 2

#: Distinct senders whose sighting count or table is kept (LRU): ~77 kB per
#: warm table bounds the cache at ~7 MB.  A key evicted before it repeats
#: starts counting again, so a stream of more distinct senders than this
#: never builds a table at all rather than building and discarding them.
_KEY_COMB_CAPACITY = 96


class _KeyCombCache(LRUCache):
    """public key -> sightings so far (``int``) or its :class:`_LimLeeComb`."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        #: Tables built since process start.
        self.builds = 0
        #: Makes count-then-promote one step, so a key is built exactly once
        #: however many threads verify its signatures.
        self._promotion_lock = threading.Lock()

    def comb_for(self, public_key: int) -> Optional[_LimLeeComb]:
        """Count one sighting; the key's table once it has repeated."""
        with self._promotion_lock:
            entry = self.get(public_key, 0)
            if isinstance(entry, _LimLeeComb):
                return entry
            if entry + 1 < _KEY_COMB_PROMOTION_SIGHTINGS:
                self.put(public_key, entry + 1)
                return None
            comb = _LimLeeComb(_inverse_of(public_key), GROUP_PRIME)
            self.builds += 1
            self.put(public_key, comb)
            return comb

    def snapshot(self) -> Dict[str, Any]:
        return {**super().snapshot(), "builds": self.builds}


_KEY_COMBS = _KeyCombCache(_KEY_COMB_CAPACITY)


def key_comb_cache() -> LRUCache:
    """The per-public-key table cache (for obs cache-stats registration)."""
    return _KEY_COMBS


def _inverse_power(public_key: int, exponent: int) -> int:
    """``(public_key^-1)^exponent mod GROUP_PRIME``, bit-identical to ``pow``.

    Through the key's fixed-base table once the key has been seen before,
    through the builtin until then.
    """
    comb = _KEY_COMBS.comb_for(public_key)
    if comb is None:
        return pow(_inverse_of(public_key), exponent, GROUP_PRIME)
    return comb.pow(exponent)


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
        self.public_key = _GENERATOR_COMB.pow(self._x)
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
        commitment = _GENERATOR_COMB.pow(nonce)
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
        # The carried challenge is compared against a hash reduced mod
        # GROUP_ORDER below: out of range it can never match, so a hostile
        # megabit exponent is turned away before any arithmetic.
        return False
    # g^s = g^(k + x*e) = r * y^e  =>  r = g^s * (y^-1)^e.  The generator
    # exponentiation runs through the shared comb table, the inverse is
    # memoized per public key and its power goes through the key's own table
    # once the key repeats; the group element is identical to the naive
    # pow-based computation.
    gs = _GENERATOR_COMB.pow(signature.s)
    try:
        r = gs * _inverse_power(y, signature.e) % GROUP_PRIME
    except ValueError:
        return False
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
