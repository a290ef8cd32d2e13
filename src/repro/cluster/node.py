"""The cluster's node facade: one ``EthereumNode``-shaped door to N replicas.

:class:`ClusterNode` subclasses :class:`~repro.chain.node.EthereumNode` so
every existing consumer -- the JSON-RPC gateway's ``eth_*`` namespace,
wallets, the faucet, the workflow, the load generator -- can hold a cluster
without knowing it.  Routing policy:

* **writes** (``send_transaction`` and everything built on it) go to the
  current *leader* and are flooded to the other replicas by gossip;
* **consistency-critical reads** (nonces, receipts, pending state, contract
  calls) are served by the leader's chain -- read-your-writes for the
  replica that accepted the write;
* **fan-out reads** (balances, blocks, logs, height) load-balance round-robin
  across replicas that are *caught up* with the leader's head; a lagging
  replica is skipped rather than allowed to serve stale data;
* **block production** (``wait_for_receipt``, ``mine``) drives the whole
  cluster through :meth:`~repro.cluster.cluster.ChainCluster.tick`, so the
  rotation schedule decides who actually mints each height.
"""

from __future__ import annotations

from typing import List

from repro.chain.block import Block
from repro.chain.chain import Blockchain
from repro.chain.node import EthereumNode
from repro.chain.transaction import Transaction
from repro.cluster.cluster import ChainCluster


class ClusterNode(EthereumNode):
    """``EthereumNode`` facade over a :class:`ChainCluster`."""

    def __init__(self, cluster: ChainCluster, network=None) -> None:
        # Deliberately no super().__init__: the cluster's replicas own the
        # chains; this facade only routes.
        self.cluster = cluster
        self.clock = cluster.clock
        #: Optional client->cluster RPC-link model (the same seam as
        #: ``EthereumNode.network``): submissions pay its delivery delay and
        #: can be lost before they ever reach the leader.  Distinct from the
        #: cluster's *inter-replica* gossip network.
        self.network = network
        self.storage = cluster.replicas[0].engine
        self.dropped_submissions = 0
        self._read_cursor = 0

    # -- routing -----------------------------------------------------------------

    @property
    def chain(self) -> Blockchain:  # type: ignore[override]
        """The freshest primary-side chain (the consistency-critical view).

        Delivers any due gossip first, then serves the highest caught-up
        replica of the primary partition side -- the most recent canonical
        state a client of this cluster can observe.  The *write* leader (who
        produces the next height) is computed separately by the cluster's
        rotation schedule.
        """
        self.cluster.pump()
        return self._freshest_replica().chain

    def _freshest_replica(self):
        """Highest caught-up replica of the cluster's primary side."""
        return max(self.cluster.primary_group(),
                   key=lambda replica: (replica.height, -replica.index))

    def _read_chain(self) -> Blockchain:
        """A load-balanced chain for fan-out reads.

        Round-robins across alive replicas whose head equals the freshest
        head; a lagging replica is skipped rather than allowed to serve
        stale data, so a read is never behind the write side.
        """
        self.cluster.pump()
        freshest = self._freshest_replica()
        # Never empty: the freshest replica trivially matches its own head.
        synced = [replica for replica in self.cluster.alive_replicas()
                  if replica.head_hash == freshest.head_hash]
        self._read_cursor = (self._read_cursor + 1) % len(synced)
        return synced[self._read_cursor].chain

    # -- fan-out reads -------------------------------------------------------------

    @property
    def block_number(self) -> int:
        """Height of the latest block (any caught-up replica)."""
        return self._read_chain().height

    # -- writes ----------------------------------------------------------------------

    def send_transaction(self, tx: Transaction) -> str:
        """Route a signed transaction to the leader and flood it to peers.

        With a client-link network model attached, the submission first
        traverses the sender->cluster RPC link exactly as it would for a
        single node (delay, retransmissions, possible loss).
        """
        self._traverse_client_link(tx)
        return self.cluster.submit(tx)

    def pending_nonce(self, address) -> int:
        """Next usable nonce, judged by the *write leader's* mempool.

        The leader is where the next submission will be validated and
        queued, so its pending set -- not a load-balanced read replica's,
        which may not have received the flood yet -- is the authority.  It
        is the first nonce the leader neither executed nor holds: a count
        of its pending transactions would hand out a nonce already pending
        whenever a lost flood left a gap below them.
        """
        from repro.chain.account import Address

        self.cluster.pump()
        chain = self.cluster.leader_replica().chain
        addr = Address(address)
        nonce = chain.state.nonce_of(addr)
        pending = set(chain.mempool.pending_nonces(addr.lower))
        while nonce in pending:
            nonce += 1
        return nonce

    # -- mints (faucet fan-out) ------------------------------------------------------

    def mint(self, address, amount_wei: int) -> None:
        """Credit ``address`` on every replica (see ``ChainCluster.mint``)."""
        self.cluster.mint(address, amount_wei)

    # -- block production ------------------------------------------------------------

    def mine(self, blocks: int = 1) -> List[Block]:
        """Produce ``blocks`` cluster ticks (empty blocks included)."""
        produced: List[Block] = []
        for _ in range(blocks):
            produced.extend(self.cluster.tick(force=True))
        return produced

