"""Binary-to-text encodings used by the chain (hex) and IPFS (base58/base32).

The implementations follow the multibase conventions used by IPFS:

* base58btc -- the Bitcoin alphabet, used by CIDv0 (``Qm...``) strings;
* base32 lower-case without padding (RFC 4648), used by CIDv1 (``bafy...``);
* ``0x``-prefixed hexadecimal, used by Ethereum addresses and hashes.
"""

from __future__ import annotations

_B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B58_INDEX = {c: i for i, c in enumerate(_B58_ALPHABET)}

_B32_ALPHABET = "abcdefghijklmnopqrstuvwxyz234567"
_B32_INDEX = {c: i for i, c in enumerate(_B32_ALPHABET)}


# ---------------------------------------------------------------------------
# Hexadecimal
# ---------------------------------------------------------------------------


def to_hex(data: bytes, prefix: bool = True) -> str:
    """Encode bytes as lowercase hex, with a ``0x`` prefix by default."""
    hexstr = bytes(data).hex()
    return "0x" + hexstr if prefix else hexstr


class HexString(str):
    """``0x`` + ``bytes.hex()``, typed: text that holds no character JSON
    escapes, so an encoder may copy it between quotes without scanning it.
    Only bytes can fill one -- arbitrary text raises ``TypeError``."""

    __slots__ = ()

    def __new__(cls, data: bytes) -> "HexString":
        return super().__new__(cls, to_hex(data))


def from_hex(text: str) -> bytes:
    """Decode a hex string (with or without ``0x`` prefix) into bytes."""
    if not isinstance(text, str):
        raise TypeError(f"from_hex expects str, got {type(text).__name__}")
    stripped = text[2:] if text.startswith(("0x", "0X")) else text
    if len(stripped) % 2 != 0:
        raise ValueError(f"hex string has odd length: {text!r}")
    try:
        return bytes.fromhex(stripped)
    except ValueError as exc:
        raise ValueError(f"invalid hex string: {text!r}") from exc


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
