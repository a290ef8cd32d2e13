"""Binary-to-text encodings used by the chain (hex) and IPFS (base58/base32).

The implementations follow the multibase conventions used by IPFS:

* base58btc -- the Bitcoin alphabet, used by CIDv0 (``Qm...``) strings;
* base32 lower-case without padding (RFC 4648), used by CIDv1 (``bafy...``);
* ``0x``-prefixed hexadecimal, used by Ethereum addresses and hashes.
"""

from __future__ import annotations

import binascii
import re

_B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B58_INDEX = {c: i for i, c in enumerate(_B58_ALPHABET)}

_B32_ALPHABET = "abcdefghijklmnopqrstuvwxyz234567"
_B32_INDEX = {c: i for i, c in enumerate(_B32_ALPHABET)}


# ---------------------------------------------------------------------------
# Hexadecimal
# ---------------------------------------------------------------------------


def to_hex(data: bytes) -> str:
    """Encode bytes as ``0x``-prefixed lowercase hex."""
    return "0x" + bytes(data).hex()


class HexString:
    """Bytes that a reply renders as ``0x`` + lowercase hex.

    ``str()`` is that text, so ``json.dumps(..., default=str)`` writes it;
    the gateway's encoder instead hexlifies :attr:`data` straight into the
    reply bytes (hex holds no character JSON escapes).  Only bytes can fill
    one -- anything else raises ``TypeError``."""

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        if not isinstance(data, bytes):
            raise TypeError(f"HexString holds bytes, not {type(data).__name__}")
        self.data = data

    def __str__(self) -> str:
        return to_hex(self.data)

    def reply_pieces(self) -> tuple:
        """The reply JSON of this value, ``"0x..."``, as bytes to join."""
        return (b'"0x', binascii.hexlify(self.data), b'"')


_NON_HEX = re.compile(r"[^0-9a-fA-F]")


def from_hex(text: str) -> bytes:
    """Decode a hex string (with or without ``0x`` prefix) into bytes.

    Strict: whitespace is a bad digit.  An error gives the length and the
    first bad offset, never the text -- it may be a 636 kB upload."""
    if not isinstance(text, str):
        raise TypeError(f"expected a hex string, got {type(text).__name__}")
    start = 2 if text.startswith(("0x", "0X")) else 0
    try:
        return binascii.unhexlify(text[start:])
    except ValueError:
        bad = _NON_HEX.search(text, start)
        if bad is None:
            raise ValueError(f"odd-length hex string ({len(text)} characters)") from None
        raise ValueError(f"non-hex character at offset {bad.start()} "
                         f"of {len(text)}") from None


# ---------------------------------------------------------------------------
# Base58 (Bitcoin alphabet) -- CIDv0
# ---------------------------------------------------------------------------


def b58_encode(data: bytes) -> str:
    """Encode bytes in base58btc (the alphabet used by CIDv0 strings)."""
    data = bytes(data)
    # Count leading zero bytes: each is encoded as '1'.
    n_leading_zeros = len(data) - len(data.lstrip(b"\x00"))
    num = int.from_bytes(data, "big")
    chars = []
    while num > 0:
        num, rem = divmod(num, 58)
        chars.append(_B58_ALPHABET[rem])
    return "1" * n_leading_zeros + "".join(reversed(chars))


def b58_decode(text: str) -> bytes:
    """Decode a base58btc string into bytes."""
    if not isinstance(text, str):
        raise TypeError(f"b58_decode expects str, got {type(text).__name__}")
    num = 0
    for char in text:
        if char not in _B58_INDEX:
            raise ValueError(f"invalid base58 character {char!r} in {text!r}")
        num = num * 58 + _B58_INDEX[char]
    n_leading_ones = len(text) - len(text.lstrip("1"))
    body = num.to_bytes((num.bit_length() + 7) // 8, "big") if num else b""
    return b"\x00" * n_leading_ones + body


# ---------------------------------------------------------------------------
# Base32 (RFC 4648, lowercase, unpadded) -- CIDv1
# ---------------------------------------------------------------------------


def b32_encode(data: bytes) -> str:
    """Encode bytes in lowercase unpadded base32 (as used by CIDv1)."""
    data = bytes(data)
    bits = 0
    bit_count = 0
    out = []
    for byte in data:
        bits = (bits << 8) | byte
        bit_count += 8
        while bit_count >= 5:
            bit_count -= 5
            out.append(_B32_ALPHABET[(bits >> bit_count) & 0x1F])
    if bit_count:
        out.append(_B32_ALPHABET[(bits << (5 - bit_count)) & 0x1F])
    return "".join(out)


def b32_decode(text: str) -> bytes:
    """Decode a lowercase unpadded base32 string into bytes."""
    if not isinstance(text, str):
        raise TypeError(f"b32_decode expects str, got {type(text).__name__}")
    bits = 0
    bit_count = 0
    out = bytearray()
    for char in text.lower():
        if char not in _B32_INDEX:
            raise ValueError(f"invalid base32 character {char!r} in {text!r}")
        bits = (bits << 5) | _B32_INDEX[char]
        bit_count += 5
        if bit_count >= 8:
            bit_count -= 8
            out.append((bits >> bit_count) & 0xFF)
    return bytes(out)
