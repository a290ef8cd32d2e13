"""Local block storage keyed by CID.

Nothing unverified enters: :meth:`BlockStore.add` derives the CID from the
bytes it stores, and :meth:`BlockStore.put` checks a claimed CID (a peer's
block) against the bytes.  Keys are canonical CID strings.  Every method has
one body over one substrate, which is either

* a :class:`MemorySpace` -- the default in-process dictionary, the seed's
  behaviour, zero I/O; or
* a ``repro.storage`` *blob space* -- a namespaced, cache-fronted view of a
  storage backend, which makes the node's blocks durable (``LogBackend``)
  and serves hot blocks from the engine's shared LRU cache.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import BlockNotFoundError, InvalidCidError
from repro.ipfs.cid import CID, DAG_PB_CODEC


class MemorySpace:
    """The in-process substrate: a dictionary behind a blob space's methods."""

    def __init__(self) -> None:
        self._blobs: Dict[str, bytes] = {}

    def put(self, key: str, data: bytes) -> None:
        self._blobs[key] = data

    def get(self, key: str) -> bytes:
        return self._blobs[key]

    def has(self, key: str) -> bool:
        return key in self._blobs

    def keys(self) -> List[str]:
        return list(self._blobs)

    def total_bytes(self) -> int:
        return sum(len(data) for data in self._blobs.values())


class BlockStore:
    """A mapping from CID to block bytes, over one substrate.

    Blocks are verified on insertion: storing bytes under a CID whose digest
    does not match raises :class:`InvalidCidError`, so a corrupted or
    malicious peer cannot poison a node's store.
    """

    def __init__(self, space: Optional[Any] = None) -> None:
        #: Where the bytes go: a :class:`repro.storage.engine.BlobSpace` or
        #: anything else with ``put/get/has/delete/keys/total_bytes``; by
        #: default an in-process :class:`MemorySpace`.
        self._space = space if space is not None else MemorySpace()

    def __len__(self) -> int:
        return len(self._space.keys())

    def __contains__(self, cid: CID | str) -> bool:
        return self.has(cid)

    @staticmethod
    def _key(cid: CID | str) -> str:
        cid_obj = cid if isinstance(cid, CID) else CID.parse(cid)
        return cid_obj.encode()

    def _lookup(self, key: str) -> Optional[bytes]:
        # ``has`` first: a block a peer must supply is no cache miss.
        return self._space.get(key) if self._space.has(key) else None

    def add(self, block: bytes, version: int = 0, codec: int = DAG_PB_CODEC) -> CID:
        """Store ``block`` under the CID its bytes hash to, and return that CID
        (the block is hashed once, here)."""
        block = bytes(block)
        cid = CID.from_bytes_payload(block, version=version, codec=codec)
        self._space.put(cid.encode(), block)
        return cid

    def put(self, cid: CID | str, block: bytes) -> CID:
        """Store ``block`` under a claimed ``cid`` after verifying the digest."""
        cid_obj = cid if isinstance(cid, CID) else CID.parse(cid)
        block = bytes(block)
        expected = CID.from_bytes_payload(block, version=cid_obj.version, codec=cid_obj.codec)
        if expected.digest != cid_obj.digest:
            raise InvalidCidError(
                f"block content does not hash to {cid_obj.encode()}"
            )
        self._space.put(cid_obj.encode(), block)
        return cid_obj

    def find(self, cid: CID | str) -> Optional[bytes]:
        """The block stored under ``cid``, or ``None``.

        A string that is a stored key is used as it is: keys are canonical,
        so parsing and re-encoding it would give it back.  Any other string is
        parsed (:class:`InvalidCidError` if it is no CID).
        """
        if isinstance(cid, str):
            block = self._lookup(cid)
            if block is not None:
                return block
        return self._lookup(self._key(cid))

    def get(self, cid: CID | str) -> bytes:
        """Fetch the block stored under ``cid``.

        Raises
        ------
        BlockNotFoundError
            If the block is not present locally.
        """
        block = self.find(cid)
        if block is None:
            raise BlockNotFoundError(f"block {self._key(cid)} not in local store")
        return block

    def has(self, cid: CID | str) -> bool:
        """Whether the block is present locally."""
        try:
            return self._space.has(self._key(cid))
        except InvalidCidError:
            return False

    def total_bytes(self) -> int:
        """Total stored payload size in bytes."""
        return self._space.total_bytes()
