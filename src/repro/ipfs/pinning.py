"""Pin management.

A pinned CID is one a node commits to keep (real IPFS's garbage collector
skips it; this simulation never collects, so every pin protects the whole
DAG beneath it).  Model owners pin the models they publish so the content
stays retrievable until the buyer has fetched it.
"""

from __future__ import annotations

from typing import Set

from repro.ipfs.cid import CID


class PinSet:
    """Tracks pinned CIDs."""

    def __init__(self) -> None:
        self._pins: Set[str] = set()

    def __len__(self) -> int:
        return len(self._pins)

    def __contains__(self, cid: CID | str) -> bool:
        try:
            return self._key(cid) in self._pins
        except Exception:
            return False

    @staticmethod
    def _key(cid: CID | str) -> str:
        return cid.encode() if isinstance(cid, CID) else CID.parse(cid).encode()

    def pin(self, cid: CID | str) -> None:
        """Pin a CID."""
        self._pins.add(self._key(cid))
