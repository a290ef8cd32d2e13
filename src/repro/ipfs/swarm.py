"""The swarm: peer discovery and bitswap-style block exchange.

Nodes register with a :class:`Swarm`; when a node is asked for a block it
does not hold locally, it asks its connected peers (in connection order) and
copies the first verified response into its own store.  The swarm also keeps
simple transfer statistics so experiments can report how many bytes moved
between owners and the buyer.

A swarm can optionally carry a network model (``repro.simnet.netmodel``) and
a simulated clock: block exchange then skips unreachable (partitioned)
providers, pays retransmission timeouts for dropped messages, and advances
the clock by each link's transfer time.  Without a network model (the seed
default) the swarm is the original ideal zero-cost LAN.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, MutableMapping, Optional, Set, TYPE_CHECKING

from repro.errors import BlockNotFoundError
from repro.ipfs.cid import CID

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.ipfs.node import IpfsNode
    from repro.simnet.netmodel import NetworkModel
    from repro.utils.clock import SimulatedClock


@dataclass
class TransferStats:
    """Counters for block exchange between two peers."""

    blocks: int = 0
    bytes: int = 0


class Swarm:
    """A set of interconnected IPFS nodes.

    A node holds its swarm; the swarm lists its members weakly, so a node
    nobody holds any more has left the swarm (a stopped daemon), and the
    two form no reference cycle.
    """

    def __init__(self, network: Optional["NetworkModel"] = None,
                 clock: Optional["SimulatedClock"] = None) -> None:
        self._nodes: MutableMapping[str, "IpfsNode"] = weakref.WeakValueDictionary()
        self._connections: Dict[str, Set[str]] = {}
        self._transfers: Dict[tuple, TransferStats] = {}
        self.network = network
        self.clock = clock
        self.failed_fetch_attempts = 0

    # -- membership -----------------------------------------------------------

    def register(self, node: "IpfsNode") -> None:
        """Add a node to the swarm (by its peer id) for as long as it lives."""
        self._nodes[node.peer_id] = node
        self._connections.setdefault(node.peer_id, set())

    def nodes(self) -> List["IpfsNode"]:
        """All registered nodes."""
        return list(self._nodes.values())

    # -- connections ------------------------------------------------------------

    def connect(self, a: "IpfsNode | str", b: "IpfsNode | str") -> None:
        """Create a bidirectional connection between two registered nodes."""
        peer_a = a if isinstance(a, str) else a.peer_id
        peer_b = b if isinstance(b, str) else b.peer_id
        if peer_a not in self._nodes or peer_b not in self._nodes:
            raise KeyError("both peers must be registered before connecting")
        if peer_a == peer_b:
            return
        self._connections[peer_a].add(peer_b)
        self._connections[peer_b].add(peer_a)

    def connect_all(self) -> None:
        """Fully mesh every registered node (the demo's single LAN)."""
        peer_ids = list(self._nodes)
        for i, peer_a in enumerate(peer_ids):
            for peer_b in peer_ids[i + 1:]:
                self.connect(peer_a, peer_b)

    def peers_of(self, node: "IpfsNode | str") -> List[str]:
        """Peer ids connected to ``node``."""
        peer_id = node if isinstance(node, str) else node.peer_id
        return sorted(self._connections.get(peer_id, set()))

    # -- block exchange -----------------------------------------------------------

    def fetch_block(self, requester: "IpfsNode", cid: CID | str) -> bytes:
        """Find a block among the requester's peers (bitswap want-have/want-block).

        Raises
        ------
        BlockNotFoundError
            If no connected peer holds the block.
        """
        cid_obj = cid if isinstance(cid, CID) else CID.parse(cid)
        for peer_id in self.peers_of(requester):
            provider = self._nodes.get(peer_id)
            if provider is None or not provider.blockstore.has(cid_obj):
                continue
            block = provider.blockstore.get(cid_obj)
            if self.network is not None:
                delivery = self.network.delivery_delay(peer_id, requester.peer_id, len(block))
                if self.clock is not None:
                    # Time spent is charged whether or not the block arrived:
                    # a failed exchange still burned its retransmission
                    # timeouts before bitswap moves on to the next provider.
                    self.clock.advance(delivery.delay_seconds)
                if not delivery.delivered:
                    self.failed_fetch_attempts += 1
                    continue
            stats = self._transfers.setdefault((peer_id, requester.peer_id), TransferStats())
            stats.blocks += 1
            stats.bytes += len(block)
            return block
        raise BlockNotFoundError(
            f"no connected peer of {requester.peer_id} provides {cid_obj.encode()}"
        )

    # -- statistics -----------------------------------------------------------------

    def total_bytes_transferred(self) -> int:
        """Total bytes exchanged across the swarm."""
        return sum(stats.bytes for stats in self._transfers.values())
