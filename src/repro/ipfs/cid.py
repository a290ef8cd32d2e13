"""Content identifiers (CIDs).

Two textual forms are supported, as in IPFS:

* **CIDv0** -- base58btc of the raw multihash; always starts with ``Qm`` for
  SHA2-256.  This is the 46-character form the paper's smart contract stores.
* **CIDv1** -- multibase(base32) of ``<version><codec><multihash>``; starts
  with ``b``.

The digest is 32 bytes, which is exactly the "32-byte CID" on-chain footprint
the paper contrasts with storing whole models on-chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from repro.errors import InvalidCidError
from repro.ipfs.multihash import Multihash
from repro.utils.encoding import b32_decode, b32_encode, b58_decode, b58_encode

DAG_PB_CODEC = 0x70
RAW_CODEC = 0x55

_CODEC_NAMES = {DAG_PB_CODEC: "dag-pb", RAW_CODEC: "raw"}


@total_ordering
@dataclass(frozen=True)
class CID:
    """A parsed content identifier."""

    version: int
    codec: int
    multihash: Multihash

    def __post_init__(self) -> None:
        if self.version not in (0, 1):
            raise InvalidCidError(f"unsupported CID version: {self.version}")
        if self.codec not in _CODEC_NAMES:
            raise InvalidCidError(f"unsupported CID codec: {self.codec:#x}")
        if self.version == 0 and self.codec != DAG_PB_CODEC:
            raise InvalidCidError("CIDv0 only supports the dag-pb codec")

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_bytes_payload(cls, payload: bytes, version: int = 0, codec: int = DAG_PB_CODEC) -> "CID":
        """Hash ``payload`` and build its CID."""
        return cls(version=version, codec=codec, multihash=Multihash.sha2_256(payload))

    @classmethod
    def parse(cls, text: str) -> "CID":
        """Parse a CIDv0 (``Qm...``) or CIDv1 (``b...``) string."""
        if not isinstance(text, str) or len(text) < 2:
            raise InvalidCidError(f"not a CID: {text!r}")
        try:
            if text.startswith("Qm"):
                raw = b58_decode(text)
                return cls(version=0, codec=DAG_PB_CODEC, multihash=Multihash.decode(raw))
            if text.startswith("b"):
                raw = b32_decode(text[1:])
                if len(raw) < 3:
                    raise InvalidCidError(f"CIDv1 payload too short: {text!r}")
                version, codec = raw[0], raw[1]
                return cls(version=version, codec=codec, multihash=Multihash.decode(raw[2:]))
        except ValueError as exc:
            raise InvalidCidError(f"undecodable CID {text!r}: {exc}") from exc
        raise InvalidCidError(f"unrecognized CID prefix: {text!r}")

    # -- rendering --------------------------------------------------------------

    def encode(self) -> str:
        """Render the canonical string form for this CID version."""
        if self.version == 0:
            return b58_encode(self.multihash.encode())
        body = bytes([self.version, self.codec]) + self.multihash.encode()
        return "b" + b32_encode(body)

    @property
    def codec_name(self) -> str:
        """Human-readable codec name."""
        return _CODEC_NAMES[self.codec]

    @property
    def digest(self) -> bytes:
        """The raw 32-byte digest (what occupies a storage slot on-chain)."""
        return self.multihash.digest

    # -- dunder -----------------------------------------------------------------

    def __str__(self) -> str:
        return self.encode()

    def __repr__(self) -> str:
        return f"CID({self.encode()!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CID):
            return self.multihash == other.multihash and self.codec == other.codec
        if isinstance(other, str):
            try:
                return self == CID.parse(other)
            except InvalidCidError:
                return False
        return NotImplemented

    def __lt__(self, other: "CID") -> bool:
        if not isinstance(other, CID):
            return NotImplemented
        return self.encode() < other.encode()

    def __hash__(self) -> int:
        return hash((self.codec, self.multihash.digest))
