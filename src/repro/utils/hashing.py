"""Cryptographic hash helpers used by the chain and IPFS substrates.

The real OFL-W3 system relies on Ethereum's Keccak-256 and IPFS's SHA2-256.
Python's :mod:`hashlib` ships SHA3-256 (the standardized Keccak variant) and
SHA2-256; we use ``sha3_256`` wherever Ethereum would use Keccak-256.  The
distinction (padding byte) is irrelevant for the reproduction: all that
matters is a collision-resistant 32-byte digest with deterministic output.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def sha256(data: bytes) -> bytes:
    """Return the SHA2-256 digest of ``data`` (32 bytes)."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"sha256 expects bytes, got {type(data).__name__}")
    return hashlib.sha256(bytes(data)).digest()


def keccak256(data: bytes) -> bytes:
    """Return a 32-byte Keccak-style digest of ``data``.

    Implemented with SHA3-256 (see module docstring); used for addresses,
    transaction hashes, block hashes and event topics, exactly where Ethereum
    uses Keccak-256.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"keccak256 expects bytes, got {type(data).__name__}")
    return hashlib.sha3_256(bytes(data)).digest()


def hash_json(obj: Any) -> bytes:
    """Hash an arbitrary JSON-serializable object deterministically.

    Keys are sorted and separators fixed so that logically equal objects hash
    to the same digest regardless of insertion order.
    """
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return keccak256(payload.encode("utf-8"))
