"""Merkle-DAG nodes linking content blocks.

Large payloads are stored as a root node whose links point at leaf blocks
(raw chunks).  The root's CID commits to every chunk's CID, so retrieving by
root CID verifies the integrity of the full payload -- the property OFL-W3
relies on when buyers fetch models uploaded by unknown owners.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.ipfs.cid import CID
from repro.utils.serialization import canonical_dumps, canonical_loads


@dataclass(frozen=True)
class DagLink:
    """A named, sized link from a DAG node to a child CID."""

    cid: str
    size: int
    name: str = ""

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {"cid": self.cid, "size": self.size, "name": self.name}


@dataclass
class DagNode:
    """A DAG node: optional inline data plus ordered links to children."""

    data: bytes = b""
    links: List[DagLink] = field(default_factory=list)

    def serialize(self) -> bytes:
        """Canonical byte encoding (what gets hashed into the node's CID)."""
        return canonical_dumps(
            {"data": self.data, "links": [link.to_dict() for link in self.links]}
        ).encode("utf-8")

    @classmethod
    def deserialize(cls, payload: bytes) -> "DagNode":
        """Parse a node from :meth:`serialize` output."""
        decoded = canonical_loads(payload.decode("utf-8"))
        links = [DagLink(**link) for link in decoded.get("links", [])]
        return cls(data=decoded.get("data", b""), links=links)

    @property
    def total_size(self) -> int:
        """Cumulative payload size reachable through this node."""
        return len(self.data) + sum(link.size for link in self.links)

    @property
    def is_leaf(self) -> bool:
        """Whether this node carries data directly with no children."""
        return not self.links
