"""Pin management.

A pinned CID is one a node commits to keep (real IPFS's garbage collector
skips it; this simulation never collects).  Model owners pin the models
they publish so the content stays retrievable until the buyer has fetched
it.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.errors import PinError
from repro.ipfs.cid import CID

RECURSIVE = "recursive"
DIRECT = "direct"


class PinSet:
    """Tracks pinned CIDs and their pin type."""

    def __init__(self) -> None:
        self._pins: Dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._pins)

    def __contains__(self, cid: CID | str) -> bool:
        return self.is_pinned(cid)

    @staticmethod
    def _key(cid: CID | str) -> str:
        return cid.encode() if isinstance(cid, CID) else CID.parse(cid).encode()

    def pin(self, cid: CID | str, recursive: bool = True) -> None:
        """Pin a CID (recursive pins protect the whole DAG beneath it)."""
        self._pins[self._key(cid)] = RECURSIVE if recursive else DIRECT

    def is_pinned(self, cid: CID | str) -> bool:
        """Whether the CID is pinned (either mode)."""
        try:
            return self._key(cid) in self._pins
        except Exception:
            return False

    def pin_type(self, cid: CID | str) -> str:
        """The pin mode of a pinned CID."""
        key = self._key(cid)
        if key not in self._pins:
            raise PinError(f"{key} is not pinned")
        return self._pins[key]

    def recursive_pins(self) -> Set[str]:
        """The set of recursively pinned CID strings."""
        return {cid for cid, mode in self._pins.items() if mode == RECURSIVE}
