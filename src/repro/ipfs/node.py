"""An IPFS node: add, cat, pin and exchange content-addressed blocks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import BlockNotFoundError
from repro.ipfs.blockstore import BlockStore
from repro.ipfs.chunker import DEFAULT_CHUNK_SIZE, chunk_bytes
from repro.ipfs.cid import CID, RAW_CODEC
from repro.ipfs.dag import DagLink, DagNode
from repro.ipfs.pinning import PinSet
from repro.ipfs.swarm import Swarm
from repro.utils.hashing import keccak256


@dataclass(frozen=True)
class AddResult:
    """Result of adding content: the root CID plus size accounting."""

    cid: CID
    size: int
    num_blocks: int

    @property
    def cid_string(self) -> str:
        """The CIDv0 string stored on-chain by the OFL-W3 contract."""
        return self.cid.encode()


class IpfsNode:
    """One IPFS daemon: a block store, a pin set and a swarm connection."""

    def __init__(self, name: str = "node", swarm: Optional[Swarm] = None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 blockstore: Optional[BlockStore] = None) -> None:
        self.name = name
        self.peer_id = "12D3Koo" + keccak256(f"oflw3-peer:{name}".encode("utf-8")).hex()[:32]
        #: A caller-provided block store may be backed by a ``repro.storage``
        #: blob space (durable, cache-fronted); the default is in-memory.
        self.blockstore = blockstore if blockstore is not None else BlockStore()
        self.pins = PinSet()
        self.chunk_size = chunk_size
        self.swarm = swarm
        if swarm is not None:
            swarm.register(self)

    def __repr__(self) -> str:
        return f"IpfsNode(name={self.name!r}, peer_id={self.peer_id!r})"

    # -- adding content ---------------------------------------------------------

    def add_bytes(self, payload: bytes, pin: bool = True) -> AddResult:
        """Chunk ``payload``, build its DAG and store every block locally.

        Returns the root CID.  Adding the same payload twice is idempotent and
        returns the same CID (content addressing deduplicates).
        """
        payload = bytes(payload)
        chunks = chunk_bytes(payload, self.chunk_size)
        if len(chunks) == 1:
            root = DagNode(data=chunks[0])
        else:
            # Each block is hashed once, by the store that keys it.
            root = DagNode(data=b"", links=[
                DagLink(cid=self.blockstore.add(chunk, version=1, codec=RAW_CODEC).encode(),
                        size=len(chunk))
                for chunk in chunks])
        root_cid = self.blockstore.add(root.serialize())
        if pin:
            self.pins.pin(root_cid)
        return AddResult(cid=root_cid, size=len(payload), num_blocks=len(root.links) + 1)

    # -- retrieving content ---------------------------------------------------------

    def _get_block(self, cid: CID | str) -> bytes:
        """Fetch a block locally or from swarm peers, caching it locally."""
        block = self.blockstore.find(cid)
        if block is not None:
            return block
        cid_obj = cid if isinstance(cid, CID) else CID.parse(cid)
        if self.swarm is None:
            raise BlockNotFoundError(
                f"{cid_obj.encode()} not stored locally and node {self.name} is offline"
            )
        block = self.swarm.fetch_block(self, cid_obj)
        self.blockstore.put(cid_obj, block)
        return block

    def cat(self, cid: CID | str) -> bytes:
        """Return the full payload behind ``cid`` (resolving its DAG)."""
        cid_obj = cid if isinstance(cid, CID) else CID.parse(cid)
        block = self._get_block(cid)  # a string as given: it is likely a stored key
        if cid_obj.codec_name == "raw":
            return block
        node = DagNode.deserialize(block)
        if node.is_leaf:
            return node.data
        return b"".join([node.data, *(self._get_block(link.cid) for link in node.links)])

    def stat(self, cid: CID | str) -> dict:
        """Size / block-count information about a DAG, like ``ipfs object stat``."""
        cid_obj = cid if isinstance(cid, CID) else CID.parse(cid)
        if cid_obj.codec_name == "raw":
            block = self._get_block(cid_obj)
            return {"cid": cid_obj.encode(), "size": len(block), "blocks": 1}
        node = DagNode.deserialize(self._get_block(cid_obj))
        return {
            "cid": cid_obj.encode(),
            "size": node.total_size,
            "blocks": 1 + len(node.links),
        }

    # -- pinning ----------------------------------------------------------------------

    def pin(self, cid: CID | str) -> None:
        """Pin a CID on this node (fetching it first if necessary)."""
        self.cat(cid)
        self.pins.pin(cid)

    # -- repo statistics -----------------------------------------------------------------

    def repo_stat(self) -> dict:
        """Local repository statistics, like ``ipfs repo stat``."""
        return {
            "peer_id": self.peer_id,
            "num_blocks": len(self.blockstore),
            "repo_size_bytes": self.blockstore.total_bytes(),
            "num_pins": len(self.pins),
        }
