"""The transaction mempool.

Pending transactions wait here until the proof-of-authority producer includes
them in a block.  Ordering is by gas price (descending) then arrival order,
mirroring fee-priority inclusion; per-sender nonce gaps keep later
transactions queued until their predecessors are included.

Two index structures keep the ingest path off linear scans:

* a fee-priority ordering cache, invalidated on add/remove, so repeated
  ``pending()`` calls (receipt polling, block selection) sort at most once
  per mutation instead of once per call;
* a sender -> {nonce -> tx hashes} index, so per-sender queries
  (``pending_count``, ``pending_nonces``) are dictionary lookups instead
  of full-pool scans.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.errors import MempoolError
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction

#: The next mutation version.  One process-wide counter, so no two states of
#: any two chains share a version -- a recovered or resynced replica's new
#: chain included -- and a version alone names what a read saw.
next_version = itertools.count(1).__next__

#: Most transactions one block includes, whatever gas remains.
MAX_BLOCK_TRANSACTIONS = 500


class Mempool:
    """Holds signed transactions awaiting inclusion."""

    def __init__(self, max_size: int = 10_000) -> None:
        self.max_size = max_size
        self._pending: Dict[str, Transaction] = {}
        self._arrival: Dict[str, int] = {}
        self._counter = 0
        self.max_depth = 0
        self.total_added = 0
        #: Append-only journal of every accepted transaction hash, in arrival
        #: order.  ``eth_newPendingTransactionFilter`` polls it by offset.
        self.added_journal: List[str] = []
        #: sender (lowercase) -> nonce -> hashes of pending transactions.
        #: Several transactions may share a (sender, nonce) pair -- e.g. a
        #: replacement at a higher gas price -- hence the list.
        self._by_sender: Dict[str, Dict[int, List[str]]] = {}
        #: Fee-priority ordering, rebuilt lazily after any add/remove.
        self._order_cache: Optional[List[Transaction]] = None
        #: Drawn from :func:`next_version` at every add and remove (see
        #: ``Blockchain.version``).
        self.version = next_version()

    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, tx_hash: str) -> bool:
        return tx_hash in self._pending

    def add(self, tx: Transaction, verify: bool = True) -> str:
        """Queue a signed transaction; returns its hash.

        ``verify=False`` admits the transaction without the signature check
        (it must still carry *a* signature): deferred batch verification
        settles the verdict at block production and evicts failures before
        selection ever sees them.

        Raises
        ------
        MempoolError
            If the pool is full, the transaction is unsigned, or a
            transaction with the same hash is already pending.
        """
        if len(self._pending) >= self.max_size:
            raise MempoolError(f"mempool full ({self.max_size} transactions)")
        if tx.signature is None or (verify and not tx.verify_signature()):
            raise MempoolError("refusing to queue an unsigned or badly signed transaction")
        tx_hash = tx.hash_hex
        if tx_hash in self._pending:
            raise MempoolError(f"transaction {tx_hash} already pending")
        self._pending[tx_hash] = tx
        self._arrival[tx_hash] = self._counter
        self._counter += 1
        self.total_added += 1
        self.added_journal.append(tx_hash)
        self._by_sender.setdefault(tx.sender.lower, {}).setdefault(tx.nonce, []).append(tx_hash)
        self._order_cache = None
        self.max_depth = max(self.max_depth, len(self._pending))
        self.version = next_version()
        return tx_hash

    def remove(self, tx_hash: str) -> Optional[Transaction]:
        """Drop a pending transaction (after inclusion or explicit eviction)."""
        self._arrival.pop(tx_hash, None)
        tx = self._pending.pop(tx_hash, None)
        if tx is not None:
            self._order_cache = None
            sender_key = tx.sender.lower
            by_nonce = self._by_sender.get(sender_key)
            if by_nonce is not None:
                hashes = by_nonce.get(tx.nonce)
                if hashes is not None:
                    try:
                        hashes.remove(tx_hash)
                    except ValueError:
                        pass
                    if not hashes:
                        del by_nonce[tx.nonce]
                if not by_nonce:
                    del self._by_sender[sender_key]
            self.version = next_version()
        return tx

    def get(self, tx_hash: str) -> Optional[Transaction]:
        """Look up a pending transaction by hash."""
        return self._pending.get(tx_hash)

    def pending(self) -> List[Transaction]:
        """All pending transactions, fee-priority ordered."""
        if self._order_cache is None:
            self._order_cache = sorted(
                self._pending.values(),
                key=lambda tx: (-tx.gas_price, self._arrival[tx.hash_hex]),
            )
        return list(self._order_cache)

    def pending_count(self, sender_key: str) -> int:
        """Number of pending transactions from ``sender_key`` (lowercase)."""
        by_nonce = self._by_sender.get(sender_key)
        if not by_nonce:
            return 0
        return sum(len(hashes) for hashes in by_nonce.values())

    def pending_nonces(self, sender_key: str) -> List[int]:
        """Sorted pending nonces of ``sender_key`` (lowercase)."""
        by_nonce = self._by_sender.get(sender_key)
        return sorted(by_nonce) if by_nonce else []

    def select_for_block(self, state: WorldState, gas_limit: int) -> List[Transaction]:
        """Choose transactions for the next block.

        Greedy fee-priority selection subject to the block gas limit and
        :data:`MAX_BLOCK_TRANSACTIONS`, with per-sender nonce continuity so
        that a sender's transactions are included in nonce order.
        """
        selected: List[Transaction] = []
        gas_budget = gas_limit
        next_nonce: Dict[str, int] = {}
        # Repeat fee-priority passes until no more transactions become
        # eligible: selecting a sender's nonce-n transaction unlocks its
        # nonce-n+1 transaction on the next pass.  Each pass walks only the
        # not-yet-selected candidates (in the one fee-priority order computed
        # up front), which preserves the historical multi-pass selection
        # order without re-sorting the pool every pass.
        remaining = self.pending()
        progressed = True
        while progressed and remaining and len(selected) < MAX_BLOCK_TRANSACTIONS:
            progressed = False
            deferred: List[Transaction] = []
            for index, tx in enumerate(remaining):
                if len(selected) >= MAX_BLOCK_TRANSACTIONS:
                    deferred.extend(remaining[index:])
                    break
                sender_key = tx.sender.lower
                expected = next_nonce.get(sender_key)
                if expected is None:
                    expected = state.nonce_of(tx.sender)
                if tx.nonce != expected or tx.gas_limit > gas_budget:
                    deferred.append(tx)
                    continue
                selected.append(tx)
                gas_budget -= tx.gas_limit
                next_nonce[sender_key] = expected + 1
                progressed = True
            remaining = deferred
        return selected

    def stats(self) -> Dict[str, int]:
        """Depth counters a scenario report samples: current, high-water, total."""
        return {
            "depth": len(self._pending),
            "max_depth": self.max_depth,
            "total_added": self.total_added,
        }
