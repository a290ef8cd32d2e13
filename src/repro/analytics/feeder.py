"""Change propagation from the WAL into the analytics replica.

The :class:`AnalyticsFeeder` is the Polynesia-style update-propagation
half of the HTAP split: it tails the chain's :class:`WriteAheadLog`
(:mod:`repro.storage.wal`) and applies every ``block`` entry to an
:class:`AnalyticsStore`, keeping the columnar replica caught up with the
transactional node without touching its hot path.

**Freshness** is explicit: :attr:`AnalyticsFeeder.applied_seq` is the last
WAL sequence number folded into the replica, ``lag()`` is the number of
WAL entries the replica is behind, and every query method drains the log
first, so reads are always *read-your-writes* fresh with respect to the
WAL while the gauge still reports how far the replica trailed between
queries.

**Compaction and reorgs** are the two ways the WAL tail can stop being a
faithful prefix of chain history:

* snapshots archive block entries into cold blob storage
  (:data:`~repro.storage.wal.BLOCK_ARCHIVE_NAMESPACE`), so a lagging
  feeder may find its next entries gone from the log -- it reconciles
  against the archive instead;
* under ``enable_fork_choice`` a reorg rewrites history: the chain calls
  :meth:`on_reorg`, and the feeder truncates the replica to the fork
  point and replays the new branch from the archive, emitting an
  ``analytics.rollback`` obs event.

Both cases funnel through one archive-reconcile step that compares block
hashes top-down (O(1) when nothing diverged).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.analytics.store import AnalyticsStore
from repro.chain.block import Block, block_from_record
from repro.chain.events import EventLog, LogFilter, LogPage
from repro.errors import AnalyticsError
from repro.obs import NULL_OBSERVABILITY


class AnalyticsFeeder:
    """Tail a WAL into an :class:`AnalyticsStore`; serve replica queries.

    The feeder *is* the object attached as ``chain.analytics``: its query
    methods drain pending WAL entries first and then answer from the
    columnar store, so routed reads are parity-identical to the scan path
    at the same chain height.
    """

    def __init__(self, wal: Any, store: Optional[AnalyticsStore] = None,
                 obs: Optional[Any] = None) -> None:
        self.wal = wal
        self.store = store if store is not None else AnalyticsStore()
        #: A :class:`repro.obs.Observability`, or (``None``, the default)
        #: the no-op facade -- the same always-an-object idiom as
        #: ``chain.obs``.
        self.obs = NULL_OBSERVABILITY if obs is None else obs
        #: Last WAL sequence number applied to (or reconciled into) the store.
        self.applied_seq = -1
        #: WAL compaction epoch the feeder last reconciled against.  ``None``
        #: forces an archive reconcile on the first drain, which doubles as
        #: the initial backfill for a feeder attached to an existing store.
        self._seen_compactions: Optional[int] = None
        self._needs_reconcile = False
        #: Total reorg rollbacks applied to the replica.
        self.rollbacks = 0
        #: Total queries served from the replica.
        self.queries = 0

    # -- change propagation ----------------------------------------------------

    def drain(self) -> int:
        """Apply every outstanding WAL entry; returns blocks applied.

        Reconciles against the block archive first whenever a compaction
        or reorg happened since the last drain, then tails the live log.
        """
        applied = 0
        compactions = getattr(self.wal, "compactions", 0)
        if self._needs_reconcile or compactions != self._seen_compactions:
            applied += self._reconcile_with_archive()
            self._seen_compactions = compactions
            self._needs_reconcile = False
        for entry in self.wal.entries(self.applied_seq + 1):
            if entry.kind == "block":
                applied += self._apply_block_record(entry.payload)
            self.applied_seq = entry.seq
        # Compaction can truncate entries the feeder never saw live (their
        # blocks were reconciled from the archive above); catch the
        # high-water mark up so lag() measures real missing work only.
        last = self.wal.last_seq()
        if last > self.applied_seq:
            self.applied_seq = last
        return applied

    @property
    def block_number(self) -> int:
        """The replica's height once drained: the chain's (a log filter's
        ``"latest"`` resolves against it)."""
        self.drain()
        return self.store.height

    def backfill(self) -> Dict[str, int]:
        """Rebuild the replica from scratch: archive first, then the live log.

        This is what ``repro analytics backfill`` runs after a crash
        recovery: it discards the in-memory columns and replays all of
        history (archived blocks + retained WAL entries) into a fresh store.
        """
        self.store = AnalyticsStore()
        self.applied_seq = -1
        self._seen_compactions = None
        self._needs_reconcile = False
        applied = self.drain()
        return {"blocks_applied": applied, "height": self.store.height,
                "applied_seq": self.applied_seq}

    def on_reorg(self, fork_height: int) -> None:
        """Chain hook: a reorg rewrote history above ``fork_height``.

        The replica is truncated to the fork point immediately (the chain
        knows the exact height, so no hash walk is needed); the new branch
        is replayed from the archive on the next drain -- the chain
        snapshots and compacts right after reorging, so that is where the
        new-branch blocks live.
        """
        self._rollback(fork_height)
        self._needs_reconcile = True

    def _reconcile_with_archive(self) -> int:
        """Roll back past any divergence and replay archived blocks.

        Compares the replica's block hashes against the archive from the
        top down: when nothing diverged (the common, compaction-only case)
        the first comparison matches and this costs O(1); after a reorg the
        walk finds the fork point, truncates the replica to it and replays
        the new branch.
        """
        store = self.store
        archived = self.wal.archived_block_numbers()
        top = archived[-1] if archived else 0
        fork = min(store.height, top)
        while fork > 0:
            record = self.wal.archived_block(fork)
            if record["header"]["hash"] == store.block_hash_at(fork):
                break
            fork -= 1
        if fork < min(store.height, top):
            # A hash mismatch inside the overlap: history above the fork
            # point was rewritten by a reorg.  (A replica *ahead* of the
            # archive -- height > top with matching overlap -- is the
            # normal lagging-compaction case and is left alone.)
            self._rollback(fork)
        applied = 0
        for number in archived:
            if number <= store.height:
                continue
            block = block_from_record(self.wal.archived_block(number))
            applied += self._apply_block_record_object(block)
        return applied

    def _rollback(self, fork_height: int) -> None:
        """Truncate the replica to ``fork_height`` (reorg handling)."""
        if fork_height >= self.store.height:
            return
        removed = self.store.rollback_to(fork_height)
        self.rollbacks += 1
        self.obs.event(
            "analytics.rollback", fork_height=fork_height,
            removed_blocks=removed["blocks"],
            removed_transactions=removed["transactions"],
            removed_logs=removed["logs"])

    def _apply_block_record(self, payload: Dict[str, Any]) -> int:
        """Apply one WAL ``block`` payload (a :meth:`Block.to_record` dict)."""
        return self._apply_block_record_object(block_from_record(payload))

    def _apply_block_record_object(self, block: Block) -> int:
        store = self.store
        number = block.number
        if number <= store.height:
            if store.block_hash_at(number) == block.hash:
                return 0  # duplicate delivery; already applied
            # Divergent history at an already-applied height: a reorg the
            # chain never told us about.  Truncate and fall through.
            self._rollback(number - 1)
        elif number > store.height + 1:
            # Gap: the intermediate blocks were compacted into the archive
            # before this feeder saw them live.
            applied = self._reconcile_with_archive()
            if number <= store.height:
                return applied
            if number > store.height + 1:
                raise AnalyticsError(
                    f"analytics feeder at height {store.height} cannot reach "
                    f"block {number}: blocks "
                    f"{store.height + 1}..{number - 1} are in neither the "
                    f"WAL nor the archive")
            return applied + self._apply_block_record_object(block)
        if number > 1:
            parent = store.block_hash_at(number - 1)
            if parent is not None and block.header.parent_hash != parent:
                raise AnalyticsError(
                    f"broken block linkage at height {number}: parent hash "
                    f"{block.header.parent_hash} does not match replica "
                    f"hash {parent}")
        store.apply_block(block)
        return 1

    # -- freshness --------------------------------------------------------------

    def lag(self) -> int:
        """WAL entries the replica is behind (0 = fully caught up)."""
        return max(0, self.wal.last_seq() - self.applied_seq)

    def status(self) -> Dict[str, Any]:
        """Freshness + size summary (the ``analytics_status`` RPC payload)."""
        stats = self.store.stats()
        return {
            "applied_seq": self.applied_seq,
            "wal_last_seq": self.wal.last_seq(),
            "lag_entries": self.lag(),
            "height": stats["height"],
            "transactions": stats["transactions"],
            "logs": stats["logs"],
            "addresses": stats["addresses"],
            "event_names": stats["event_names"],
            "rollbacks": self.rollbacks,
            "queries": self.queries,
        }

    # -- routed queries (drain first, then answer from the columns) -------------

    def logs(self, log_filter: Optional[LogFilter] = None) -> List[EventLog]:
        """Replica-served ``Blockchain.logs`` (scan-path parity)."""
        self.drain()
        self.queries += 1
        return self.store.logs(log_filter)

    def logs_page(self, log_filter: Optional[LogFilter] = None,
                  limit: Optional[int] = None,
                  cursor: Optional[str] = None) -> LogPage:
        """Replica-served ``Blockchain.logs_page`` (cursor parity)."""
        self.drain()
        self.queries += 1
        return self.store.logs_page(log_filter, limit=limit, cursor=cursor)

    def log_count(self) -> int:
        """Replica-served canonical log-stream length."""
        self.drain()
        return self.store.log_count

    def records(self) -> List[Any]:
        """Replica-served ``Explorer.all_records`` (chain-order records)."""
        self.drain()
        self.queries += 1
        return list(self.store.records)

    def record(self, tx_hash: str) -> Optional[Any]:
        """Replica-served ``Explorer.record`` -- O(1) instead of a scan."""
        self.drain()
        self.queries += 1
        return self.store.record(tx_hash)

    def transactions_of(self, address: str) -> List[Any]:
        """Replica-served ``Explorer.transactions_of`` via the address index."""
        self.drain()
        self.queries += 1
        return self.store.transactions_of(address)

    def records_page(self, address: Optional[str] = None, limit: int = 50,
                     cursor: Optional[str] = None
                     ) -> Tuple[List[Any], Optional[str]]:
        """Replica-served ``Explorer.records_page`` (cursor parity)."""
        self.drain()
        self.queries += 1
        return self.store.records_page(address, limit=limit, cursor=cursor)

    def fee_summary_by_kind(self) -> Dict[str, Dict[str, float]]:
        """Replica-served ``Explorer.fee_summary_by_kind`` from the rollup."""
        self.drain()
        self.queries += 1
        return self.store.fee_summary_by_kind()

    def account_columns(self, address: str) -> Dict[str, int]:
        """Replica-served scan half of ``Explorer.account_activity``."""
        self.drain()
        self.queries += 1
        return self.store.account_columns(address)

    def chain_statistics(self) -> Dict[str, int]:
        """Replica-served ``Explorer.chain_statistics`` from the totals."""
        self.drain()
        self.queries += 1
        return self.store.chain_statistics()

    def leaderboard(self, name: str = "payments",
                    limit: int = 10) -> List[Dict[str, Any]]:
        """Replica-served marketplace leaderboard from the rollups."""
        self.drain()
        self.queries += 1
        return self.store.leaderboard(name, limit)

    def series(self, event_name: str) -> List[Dict[str, Any]]:
        """Replica-served event time series (contribution/payout history)."""
        self.drain()
        self.queries += 1
        return self.store.series(event_name)


def attach_analytics(chain: Any, store: Optional[AnalyticsStore] = None,
                     obs: Optional[Any] = None) -> AnalyticsFeeder:
    """Build a feeder over ``chain``'s WAL and route its reads to the replica.

    Requires the chain to have durable storage attached (the WAL is the
    change-propagation source).  The feeder backfills from the archive +
    live log, is installed as ``chain.analytics`` (flipping ``logs`` /
    ``logs_page`` / explorer routing over to the replica) and is returned.
    """
    hooks = getattr(chain, "store", None)
    engine = getattr(hooks, "engine", None)
    wal = getattr(engine, "wal", None)
    if wal is None:
        raise AnalyticsError(
            "chain has no durable store attached; the analytics replica "
            "needs a WriteAheadLog to feed from")
    feeder = AnalyticsFeeder(wal, store=store, obs=obs)
    feeder.drain()
    chain.analytics = feeder
    return feeder


def detach_analytics(chain: Any) -> None:
    """Remove the replica routing; reads fall back to the OLTP scan path."""
    chain.analytics = None
