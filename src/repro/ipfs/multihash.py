"""Multihash: self-describing hash digests.

A multihash is ``<hash-function-code><digest-length><digest>``.  IPFS CIDs
embed multihashes so that the hash function can evolve without changing the
identifier format.  Only SHA2-256 (code ``0x12``) is needed here, but the
encoding is general.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidCidError
from repro.utils.hashing import sha256

SHA2_256_CODE = 0x12
IDENTITY_CODE = 0x00

_KNOWN_CODES = {SHA2_256_CODE: "sha2-256", IDENTITY_CODE: "identity"}


@dataclass(frozen=True)
class Multihash:
    """A decoded multihash: function code, digest length and digest bytes."""

    code: int
    digest: bytes

    def __post_init__(self) -> None:
        if self.code not in _KNOWN_CODES:
            raise InvalidCidError(f"unknown multihash function code: {self.code:#x}")
        if not isinstance(self.digest, (bytes, bytearray)) or len(self.digest) == 0:
            raise InvalidCidError("multihash digest must be non-empty bytes")
        object.__setattr__(self, "digest", bytes(self.digest))

    @property
    def length(self) -> int:
        """Digest length in bytes."""
        return len(self.digest)

    def encode(self) -> bytes:
        """Serialize to ``<code><length><digest>`` bytes."""
        return bytes([self.code, self.length]) + self.digest

    @classmethod
    def decode(cls, data: bytes) -> "Multihash":
        """Parse a multihash from its binary encoding."""
        data = bytes(data)
        if len(data) < 2:
            raise InvalidCidError("multihash too short")
        code, length = data[0], data[1]
        digest = data[2:]
        if len(digest) != length:
            raise InvalidCidError(
                f"multihash length mismatch: header says {length}, got {len(digest)} bytes"
            )
        return cls(code=code, digest=digest)

    @classmethod
    def sha2_256(cls, payload: bytes) -> "Multihash":
        """Hash ``payload`` with SHA2-256 and wrap it as a multihash."""
        return cls(code=SHA2_256_CODE, digest=sha256(payload))
