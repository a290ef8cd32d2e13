"""Local block storage keyed by CID.

Nothing unverified enters: :meth:`BlockStore.add` derives the CID from the
bytes it stores, and :meth:`BlockStore.put` checks a claimed CID (a peer's
block) against the bytes.  Keys are canonical CID strings.  The store can sit
on two substrates:

* the default in-process dictionary -- the seed's behaviour, zero I/O;
* a ``repro.storage`` *blob space* -- a namespaced, cache-fronted view of a
  storage backend, which makes the node's blocks durable (``LogBackend``)
  and serves hot blocks from the engine's shared LRU cache.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from repro.errors import BlockNotFoundError, InvalidCidError
from repro.ipfs.cid import CID, DAG_PB_CODEC


class BlockStore:
    """A mapping from CID to block bytes, in memory or on a blob space.

    Blocks are verified on insertion: storing bytes under a CID whose digest
    does not match raises :class:`InvalidCidError`, so a corrupted or
    malicious peer cannot poison a node's store.
    """

    def __init__(self, space: Optional[Any] = None) -> None:
        #: ``None`` -> plain dict (seed path); otherwise a
        #: :class:`repro.storage.engine.BlobSpace`-shaped object with
        #: ``put/get/has/delete/keys/total_bytes``.
        self._space = space
        self._blocks: Dict[str, bytes] = {}

    def __len__(self) -> int:
        if self._space is not None:
            return len(self._space.keys())
        return len(self._blocks)

    def __contains__(self, cid: CID | str) -> bool:
        return self.has(cid)

    @staticmethod
    def _key(cid: CID | str) -> str:
        cid_obj = cid if isinstance(cid, CID) else CID.parse(cid)
        return cid_obj.encode()

    def _store(self, key: str, block: bytes) -> None:
        if self._space is not None:
            self._space.put(key, block)
        else:
            self._blocks[key] = block

    def _lookup(self, key: str) -> Optional[bytes]:
        if self._space is None:
            return self._blocks.get(key)
        # ``has`` first: a block a peer must supply is no cache miss.
        return self._space.get(key) if self._space.has(key) else None

    def add(self, block: bytes, version: int = 0, codec: int = DAG_PB_CODEC) -> CID:
        """Store ``block`` under the CID its bytes hash to, and return that CID
        (the block is hashed once, here)."""
        block = bytes(block)
        cid = CID.from_bytes_payload(block, version=version, codec=codec)
        self._store(cid.encode(), block)
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
        self._store(cid_obj.encode(), block)
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
            key = self._key(cid)
        except InvalidCidError:
            return False
        if self._space is not None:
            return self._space.has(key)
        return key in self._blocks

    def delete(self, cid: CID | str) -> bool:
        """Remove a block; returns whether it existed."""
        key = self._key(cid)
        if self._space is not None:
            return self._space.delete(key)
        return self._blocks.pop(key, None) is not None

    def cids(self) -> Iterator[str]:
        """Iterate over the CIDs of all stored blocks."""
        if self._space is not None:
            return iter(self._space.keys())
        return iter(list(self._blocks.keys()))

    def total_bytes(self) -> int:
        """Total stored payload size in bytes."""
        if self._space is not None:
            return self._space.total_bytes()
        return sum(len(block) for block in self._blocks.values())
