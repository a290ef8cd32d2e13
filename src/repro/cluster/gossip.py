"""The gossip layer: transaction flooding and block announce/fetch.

Replicas never call each other directly.  Every piece of replicated data
crosses this layer, which models the wire with a ``repro.simnet``
:class:`~repro.simnet.netmodel.NetworkModel`:

* **transaction floods** -- a transaction accepted by one replica is flooded
  to every peer; each copy independently pays the link's delivery delay and
  can be dropped or blocked by a partition;
* **block announcements** -- a replica that appends a block announces the
  new head (hash + height) to every peer.  An announcement is tiny; on
  delivery the peer *fetches* the missing block records from the announcer
  (walking parents until it reaches a block it already knows) and applies
  them through the replica's fork choice.  This pull-based fetch is what heals
  gaps: a replica that missed ten announcements catches up entirely from the
  next one it hears.

Messages sit in per-replica inboxes ordered by delivery time and are applied
when the cluster pumps (:meth:`GossipLayer.deliver_due`), so everything stays
deterministic on the simulated clock.  Fetching is modelled as an immediate
pull at delivery time -- the announce already paid the link delay, and the
block bytes are charged to the network model's byte counters.
"""

from __future__ import annotations

import heapq
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import BlockValidationError, ClusterError, ReproError
from repro.obs import NULL_OBSERVABILITY, NULL_SPAN

#: Safety cap on ancestors fetched per announcement (a replica further behind
#: than this resyncs from the peer's snapshot instead of walking the chain).
MAX_FETCH_DEPTH = 10_000


class GossipStats:
    """Counters the cluster status report reads off the gossip layer."""

    def __init__(self) -> None:
        self.tx_floods = 0
        self.tx_delivered = 0
        self.tx_rejected = 0
        self.announces = 0
        self.announces_delivered = 0
        self.blocks_fetched = 0
        self.reorgs_triggered = 0
        self.orphans_resolved = 0
        self.resyncs = 0
        self.undeliverable = 0

    def to_dict(self) -> Dict[str, int]:
        """JSON-friendly counter dump."""
        return {
            "tx_floods": self.tx_floods,
            "tx_delivered": self.tx_delivered,
            "tx_rejected": self.tx_rejected,
            "announces": self.announces,
            "announces_delivered": self.announces_delivered,
            "blocks_fetched": self.blocks_fetched,
            "reorgs_triggered": self.reorgs_triggered,
            "orphans_resolved": self.orphans_resolved,
            "resyncs": self.resyncs,
            "undeliverable": self.undeliverable,
        }


class GossipLayer:
    """Floods transactions and announces/fetches blocks between replicas.

    ``network`` is an optional :class:`~repro.simnet.netmodel.NetworkModel`
    keyed by replica endpoint names; ``None`` is the ideal wire (instant,
    lossless, never partitioned).
    """

    def __init__(self, replicas: List[Any], network: Optional[Any],
                 clock: Any) -> None:
        self.replicas = replicas
        self.network = network
        self.clock = clock
        self.stats = GossipStats()
        #: Observability hooks (``repro.obs``); the no-op facade by default.
        #: Under a real one, flooded tx messages carry a ``"trace"`` context
        #: dict so delivery spans on receiving replicas parent onto the
        #: sender's span.
        self.obs: Any = NULL_OBSERVABILITY
        self._seq = 0
        #: Per-replica inbox: a heap of ``(deliver_at, seq, message)``.
        self._inboxes: List[List[Tuple[float, int, Dict[str, Any]]]] = [
            [] for _ in replicas
        ]

    # -- wire model -------------------------------------------------------------

    def reachable(self, a_index: int, b_index: int) -> bool:
        """Whether the link between two replicas is currently passable."""
        if self.network is None:
            return True
        return self.network.can_reach(
            self.replicas[a_index].name, self.replicas[b_index].name)

    def _deliver_later(self, origin: int, target: int,
                       message: Dict[str, Any], num_bytes: int) -> None:
        """Enqueue one message copy, paying the link's delivery semantics."""
        if self.network is None:
            delay, delivered = 0.0, True
        else:
            outcome = self.network.delivery_delay(
                self.replicas[origin].name, self.replicas[target].name,
                num_bytes)
            delay, delivered = outcome.delay_seconds, outcome.delivered
        if not delivered:
            self.stats.undeliverable += 1
            return
        heapq.heappush(self._inboxes[target],
                       (self.clock.now + delay, self._seq, message))
        self._seq += 1

    # -- send side --------------------------------------------------------------

    def flood_tx(self, origin_index: int, tx: Any,
                 targets: Optional[Sequence[int]] = None) -> None:
        """Broadcast an accepted transaction to every other replica (or to
        ``targets`` only: the peers a healed partition had cut off)."""
        payload = tx.to_dict()
        wire_bytes = len(json.dumps(payload))
        for target in range(len(self.replicas)) if targets is None else targets:
            if target == origin_index:
                continue
            self.stats.tx_floods += 1
            message: Dict[str, Any] = {"kind": "tx", "tx": payload}
            # One send span per target; ``link=False`` so its children
            # live on the *receiving* replica, not the origin's chain.
            span = self.obs.tx_span(
                "gossip.send", tx.hash_hex, link=False,
                replica=self.replicas[origin_index].name,
                target=self.replicas[target].name)
            message["trace"] = self.obs.span_context(span)
            self.obs.end(span)
            self._deliver_later(origin_index, target, message, wire_bytes)

    def announce_block(self, origin_index: int, head_hash: str,
                       height: int) -> None:
        """Announce a new head to every other replica (fetch follows pull)."""
        message = {"kind": "announce", "origin": origin_index,
                   "hash": head_hash, "height": int(height)}
        for target, replica in enumerate(self.replicas):
            if target == origin_index:
                continue
            self.stats.announces += 1
            self._deliver_later(origin_index, target, message, 96)

    # -- receive side -----------------------------------------------------------

    def deliver_due(self, now: float) -> int:
        """Apply every message whose delivery time has arrived; returns count."""
        delivered = 0
        for index, replica in enumerate(self.replicas):
            inbox = self._inboxes[index]
            while inbox and inbox[0][0] <= now:
                _, _, message = heapq.heappop(inbox)
                if not replica.alive:
                    continue  # a dead replica's NIC drops everything
                self._apply(index, message)
                delivered += 1
        return delivered

    def drain(self) -> int:
        """Apply every queued message regardless of delivery time.

        Used by explicit anti-entropy (:meth:`ChainCluster.converge`) so a
        heal does not leave half-delivered gossip behind.
        """
        latest = max((deliver_at
                      for inbox in self._inboxes
                      for deliver_at, _, _ in inbox),
                     default=self.clock.now)
        return self.deliver_due(max(latest, self.clock.now))

    def _apply(self, index: int, message: Dict[str, Any]) -> None:
        replica = self.replicas[index]
        if message["kind"] == "tx":
            from repro.chain.transaction import Transaction

            span = NULL_SPAN
            ctx = message.get("trace")
            if ctx is not None:  # None: the sender's span was not recorded
                span = self.obs.tx_span(
                    "gossip.deliver", ctx["trace_id"],
                    parent_id=ctx.get("parent"), replica=replica.name)
            try:
                replica.chain.submit_transaction(
                    Transaction.from_dict(message["tx"]))
                self.stats.tx_delivered += 1
                self.obs.end(span.annotate("accepted", True))
            except ReproError:
                # Duplicate, already mined here, or invalid against this
                # replica's state -- all normal in a gossip mesh.
                self.stats.tx_rejected += 1
                self.obs.end(span.annotate("accepted", False))
            return
        if message["kind"] == "announce":
            origin = self.replicas[message["origin"]]
            self.stats.announces_delivered += 1
            self.sync_from(replica, origin, message["hash"])
            return
        raise ClusterError(f"unknown gossip message kind {message['kind']!r}")

    # -- fetch / anti-entropy ----------------------------------------------------

    def sync_from(self, replica: Any, origin: Any, target_hash: str) -> bool:
        """Pull the chain ending at ``target_hash`` from ``origin``.

        Walks parents back from the target until hitting a block ``replica``
        already knows, then applies the records in forward order through the
        replica's fork choice.  Falls back to a full resync (state snapshot +
        verbatim block import) when the rollback a reorg would need is no
        longer possible -- e.g. a replica recovered from its WAL being asked
        to abandon pre-recovery history.  Returns True if the replica's
        canonical chain changed.
        """
        if not replica.alive or not origin.alive:
            return False
        fork = replica.fork
        if replica.head_hash == target_hash:
            return False
        records: List[Dict[str, Any]] = []
        cursor = target_hash
        while len(records) < MAX_FETCH_DEPTH and not fork.knows_block(cursor):
            record = origin.fork.block_record(cursor)
            if record is None:
                return False  # the announcer itself reorged away from it
            records.append(record)
            self.stats.blocks_fetched += 1
            cursor = record["header"]["parent_hash"]
        if not fork.knows_block(cursor):
            # Too far behind to walk the chain (the fetch budget ran out
            # before reaching shared history): snap-sync from the peer.
            self.stats.resyncs += 1
            replica.resync_from(origin)
            return True
        changed = False
        applied = 0
        try:
            for record in reversed(records):
                status = fork.apply_block(record)
                if status == "reorged":
                    self.stats.reorgs_triggered += 1
                if status in ("extended", "side", "reorged"):
                    applied += 1
                if status in ("extended", "reorged"):
                    changed = True
        except BlockValidationError:
            self.stats.resyncs += 1
            replica.resync_from(origin)
            return True
        # Ancestors pulled beyond the announced head itself are resolved gaps.
        self.stats.orphans_resolved += max(0, applied - 1)
        return changed
