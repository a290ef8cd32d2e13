"""A content-addressed storage network in the spirit of IPFS.

OFL-W3 stores model payloads off-chain in IPFS and records only the 32-byte
content identifiers (CIDs) on-chain.  This package provides the pieces the
system relies on:

* :mod:`repro.ipfs.multihash` / :mod:`repro.ipfs.cid` -- self-describing
  hashes and CIDv0/CIDv1 identifiers;
* :mod:`repro.ipfs.chunker` / :mod:`repro.ipfs.dag` -- splitting payloads
  into blocks and linking them into a Merkle DAG;
* :mod:`repro.ipfs.blockstore` / :mod:`repro.ipfs.pinning` -- local block
  storage and the pins a node keeps;
* :mod:`repro.ipfs.node` / :mod:`repro.ipfs.swarm` -- nodes that exchange
  blocks bitswap-style over a swarm.
"""

from repro.ipfs.blockstore import BlockStore
from repro.ipfs.chunker import DEFAULT_CHUNK_SIZE, chunk_bytes
from repro.ipfs.cid import CID
from repro.ipfs.dag import DagNode
from repro.ipfs.multihash import Multihash
from repro.ipfs.node import AddResult, IpfsNode
from repro.ipfs.pinning import PinSet
from repro.ipfs.swarm import Swarm

__all__ = [
    "BlockStore",
    "DEFAULT_CHUNK_SIZE",
    "chunk_bytes",
    "CID",
    "DagNode",
    "Multihash",
    "AddResult",
    "IpfsNode",
    "PinSet",
    "Swarm",
]
