"""The storage engine: WAL + snapshots + blob spaces + read cache, composed.

:class:`StorageEngine` is the one object the rest of the stack holds.  It
owns a :class:`~repro.storage.backend.StorageBackend` (memory or log), the
chain's :class:`~repro.storage.wal.WriteAheadLog`, a
:class:`~repro.storage.snapshot.SnapshotManager` and one shared
:class:`~repro.utils.cache.LRUCache` for blob reads.  From it hang:

* :class:`ChainStore` -- the adapter a :class:`~repro.chain.chain.Blockchain`
  calls on every mint / transaction / block, which also triggers the
  periodic snapshot + WAL compaction cycle;
* :class:`BlobSpace` -- a namespaced, cache-fronted byte store handed to
  each IPFS node's block store;
* :func:`recover_chain` -- replay-based crash recovery to the identical
  head, which ``EthereumNode(storage=...)`` runs over a store that
  :meth:`StorageEngine.holds_history`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from repro.errors import ReproError, StorageCorruptionError, StorageError
from repro.storage.backend import LogBackend, MemoryBackend, StorageBackend
from repro.utils.cache import LRUCache
from repro.storage.snapshot import SnapshotManager, restore_state, state_digest
from repro.storage.wal import WriteAheadLog

CHAIN_META_KEY = "chain"


@dataclass(frozen=True)
class StorageConfig:
    """Declarative description of one storage engine.

    ``backend="memory"`` (the default) keeps everything in process and is
    bit-for-bit invisible to experiment output; ``backend="log"`` persists
    under ``directory`` and survives process death.
    """

    backend: str = "memory"
    directory: Optional[str] = None
    snapshot_interval_blocks: int = 16
    cache_capacity: int = 256
    fsync: bool = False

    def __post_init__(self) -> None:
        if self.backend not in ("memory", "log"):
            raise StorageError(
                f"unknown storage backend {self.backend!r} (memory or log)")
        if self.backend == "log" and not self.directory:
            raise StorageError("the log backend requires a directory")
        if self.snapshot_interval_blocks <= 0:
            raise StorageError(
                f"snapshot_interval_blocks must be positive, "
                f"got {self.snapshot_interval_blocks}")
        if self.cache_capacity <= 0:
            raise StorageError(
                f"cache_capacity must be positive, got {self.cache_capacity}")


class BlobSpace:
    """A namespaced view of the backend's blob store, fronted by the cache.

    Reads are served from the engine's shared LRU cache when possible;
    writes go through to the backend and freshen the cache (write-through).
    """

    def __init__(self, engine: "StorageEngine", namespace: str) -> None:
        self.engine = engine
        self.namespace = namespace

    def put(self, key: str, data: bytes) -> None:
        self.engine.backend.put_blob(self.namespace, key, bytes(data))
        self.engine.cache.put((self.namespace, key), bytes(data))

    def get(self, key: str) -> bytes:
        cached = self.engine.cache.get((self.namespace, key))
        if cached is not None:
            return cached
        data = self.engine.backend.get_blob(self.namespace, key)
        self.engine.cache.put((self.namespace, key), data)
        return data

    def has(self, key: str) -> bool:
        return (self.namespace, key) in self.engine.cache or \
            self.engine.backend.has_blob(self.namespace, key)

    def keys(self) -> List[str]:
        return self.engine.backend.blob_keys(self.namespace)

    def total_bytes(self) -> int:
        return self.engine.backend.blob_bytes(self.namespace)


class StorageEngine:
    """Everything durable, behind one handle."""

    def __init__(self, config: Optional[StorageConfig] = None) -> None:
        self.config = config or StorageConfig()
        self.backend: StorageBackend
        if self.config.backend == "log":
            self.backend = LogBackend(self.config.directory, fsync=self.config.fsync)
        else:
            self.backend = MemoryBackend()
        self.wal = WriteAheadLog(self.backend)
        self.snapshots = SnapshotManager(self.backend)
        self.cache = LRUCache(self.config.cache_capacity)

    @property
    def is_persistent(self) -> bool:
        """Whether this engine survives process death."""
        return self.config.backend == "log"

    def holds_history(self) -> bool:
        """Whether a chain already wrote here: a WAL entry or a snapshot."""
        return self.wal.last_seq() >= 0 or self.snapshots.latest_pointer() is not None

    def blob_space(self, namespace: str) -> BlobSpace:
        """A cache-fronted blob namespace (e.g. one IPFS node's blocks)."""
        return BlobSpace(self, namespace)

    def chain_store(self) -> "ChainStore":
        """The write hooks a :class:`Blockchain` calls (one per chain)."""
        return ChainStore(self)

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly inspection dump (CLI ``storage inspect``)."""
        pointer = self.snapshots.latest_pointer()
        return {
            "config": {
                "backend": self.config.backend,
                "directory": self.config.directory,
                "snapshot_interval_blocks": self.config.snapshot_interval_blocks,
                "cache_capacity": self.config.cache_capacity,
                "fsync": self.config.fsync,
            },
            "backend": self.backend.describe(),
            "wal": self.wal.counts_by_kind(),
            "snapshot": pointer,
            "archived_blocks": len(self.wal.archived_block_numbers()),
            "cache": self.cache.snapshot(),
        }

    def close(self) -> None:
        self.backend.close()


def ensure_engine(
    storage: Union[StorageEngine, StorageConfig, None]
) -> Optional[StorageEngine]:
    """Normalize a config-or-engine argument into an engine (``None`` passes)."""
    if storage is None:
        return None
    if isinstance(storage, StorageEngine):
        return storage
    if isinstance(storage, StorageConfig):
        return StorageEngine(storage)
    raise StorageError(
        f"expected a StorageConfig or StorageEngine, got {type(storage).__name__}")


class ChainStore:
    """Write hooks between one :class:`Blockchain` and the storage engine.

    The chain calls :meth:`record_mint`, :meth:`record_transaction` and
    :meth:`record_block`; the store appends WAL entries (the last two timed as
    the chain's ``chain.persist`` phase) and, every ``snapshot_interval_blocks``
    blocks, writes a state snapshot and compacts the WAL behind it.

    The chain owns its store, so the store keeps no pointer back to it: the
    hooks that read the chain are handed it, and a dropped chain is freed by
    reference counting alone.
    """

    def __init__(self, engine: StorageEngine) -> None:
        self.engine = engine
        self.snapshot_interval = engine.config.snapshot_interval_blocks

    def attach(self, chain: Any) -> None:
        """Check the chain may write here (called by ``Blockchain.__init__``)
        and persist its static parameters so recovery can rebuild an
        identical instance.

        A fresh chain refuses a store that already holds history: its
        genesis-rooted blocks after another run's WAL would make both chains
        unrecoverable.  ``EthereumNode(storage=...)`` is the way in: it
        recovers (:func:`recover_chain`), which binds without attaching.
        """
        if self.engine.holds_history():
            raise StorageError(
                "this store already holds chain history; open it through "
                "EthereumNode(storage=...), which recovers it, or give the "
                "new chain an empty store")
        if self.engine.backend.get_meta(CHAIN_META_KEY) is None:
            config = chain.config
            self.engine.backend.put_meta(CHAIN_META_KEY, {
                "chain_id": config.chain_id,
                "name": config.name,
                "block_gas_limit": config.block_gas_limit,
                "slot_seconds": config.slot_seconds,
                "genesis_timestamp": chain.genesis_timestamp,
                "validators": [str(v) for v in chain.consensus.validators],
            })

    # -- write hooks ------------------------------------------------------------

    def record_mint(self, address: str, amount_wei: int) -> None:
        self.engine.wal.append("mint", {"address": str(address),
                                        "amount_wei": int(amount_wei)})

    def record_transaction(self, chain: Any, tx: Any) -> None:
        with chain.obs.phase("chain.persist"):
            self.engine.wal.append("tx", {"hash": tx.hash_hex,
                                          "transaction": tx.to_dict()})

    def record_block(self, chain: Any, block: Any) -> None:
        with chain.obs.phase("chain.persist"):
            self.engine.wal.append("block", block.to_record())
            if block.number % self.snapshot_interval == 0:
                self.snapshot(chain)

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self, chain: Any) -> Dict[str, Any]:
        """Write a snapshot at ``chain``'s head and compact the WAL behind it.

        The snapshot's ``wal_seq`` is the *last appended* WAL sequence: every
        entry at or below it is already reflected in the snapshotted state
        (mints, executed blocks) or is a pending transaction that compaction
        deliberately retains for mempool recovery.
        """
        wal_seq = self.engine.wal.last_seq()
        pointer = self.engine.snapshots.write(chain, wal_seq=wal_seq)
        if wal_seq >= 0:
            self.engine.wal.compact(
                wal_seq,
                is_pending_tx=lambda payload: not chain.has_receipt(
                    payload["hash"]),
            )
        self.engine.backend.sync()
        return pointer


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


def recover_chain(
    storage: Union[StorageEngine, StorageConfig],
    backend: Any = None,
    clock: Any = None,
):
    """Rebuild a :class:`Blockchain` from snapshot + WAL.

    Three phases:

    1. reconstruct the chain skeleton from the persisted static parameters
       (chain id, slot time, genesis timestamp);
    2. restore the latest snapshot's state and the archived block history up
       to the snapshot height (no re-execution);
    3. re-execute every WAL block past the snapshot, verifying each
       recomputed block hash against the recorded header, then re-queue any
       still-pending ``tx`` entries into the mempool.

    Returns the recovered chain, writing through a new :class:`ChainStore`
    on the same engine; its head hash is identical to the chain that wrote
    the log, or :class:`StorageCorruptionError` is raised.
    """
    from repro.chain.chain import Blockchain, ChainConfig
    from repro.chain.account import Address
    from repro.chain.transaction import Transaction
    from repro.utils.clock import SimulatedClock

    engine = ensure_engine(storage)
    meta = engine.backend.get_meta(CHAIN_META_KEY)
    if meta is None:
        raise StorageError(
            "no chain metadata in this store -- nothing was ever persisted")

    clock = clock or SimulatedClock(start_time=float(meta["genesis_timestamp"]))
    config = ChainConfig(
        chain_id=int(meta["chain_id"]),
        name=str(meta["name"]),
        block_gas_limit=int(meta["block_gas_limit"]),
        slot_seconds=float(meta["slot_seconds"]),
    )

    chain = Blockchain(
        config=config,
        backend=backend,
        clock=clock,
        validators=[Address(v) for v in meta.get("validators") or []],
        genesis_timestamp=float(meta["genesis_timestamp"]),
    )

    snapshot = engine.snapshots.load_latest()
    snapshot_height = 0
    replay_boundary = -1  # replay every entry with seq > this
    if snapshot is not None:
        snapshot_height = int(snapshot["height"])
        replay_boundary = int(snapshot["wal_seq"])
        # Archived history first (trusted, no re-execution) ...
        for number in engine.wal.archived_block_numbers():
            if number <= snapshot_height:
                chain.import_block(engine.wal.archived_block(number))
        # ... but blocks <= H still sit in the live WAL when a crash fell
        # between the snapshot and the compaction behind it.
        for entry in engine.wal.entries():
            if entry.kind == "block" and \
                    int(entry.payload["header"]["number"]) <= snapshot_height and \
                    chain.height < int(entry.payload["header"]["number"]):
                chain.import_block(entry.payload)
        if chain.height != snapshot_height:
            raise StorageCorruptionError(
                f"block history ends at {chain.height} but the snapshot "
                f"is at {snapshot_height}")
        if chain.latest_block.hash != snapshot["head_hash"]:
            raise StorageCorruptionError(
                f"recovered head {chain.latest_block.hash} does not match "
                f"snapshot head {snapshot['head_hash']}")
        # The contract backend *is* the registry in this stack, so it can
        # re-instantiate snapshot contract classes directly.
        chain.state = restore_state(snapshot["state"], backend)

    # Phase 3: re-execute everything past the snapshot boundary, in WAL
    # order.  Transaction entries are collected regardless of position:
    # compaction retains exactly the pending ones, and the inclusion
    # check below filters out any that a later block replay mined.
    pending: List[Dict[str, Any]] = []
    for entry in engine.wal.entries():
        if entry.kind == "tx":
            pending.append(entry.payload)
            continue
        if entry.seq <= replay_boundary:
            continue
        if entry.kind == "mint":
            chain.state.credit(
                Address(entry.payload["address"]),
                int(entry.payload["amount_wei"]))
        elif entry.kind == "block":
            chain.replay_block(entry.payload)

    # Pending transactions: whatever never landed in a block goes back
    # into the mempool, like a node re-reading its txpool journal.  A
    # pending entry that no longer validates (e.g. a later mined tx
    # drained the sender's balance) is dropped, not fatal -- an intact
    # store must always recover.
    chain.dropped_pending_on_recovery = 0
    for payload in pending:
        if not chain.has_receipt(payload["hash"]):
            try:
                chain.submit_transaction(Transaction.from_dict(payload["transaction"]))
            except ReproError:
                chain.dropped_pending_on_recovery += 1

    if snapshot is not None:
        clock.advance_to(float(snapshot["clock_now"]))
    if chain.height > 0:
        clock.advance_to(chain.latest_block.timestamp)
    # Bound only now, so nothing replayed above is logged twice.
    chain.store = engine.chain_store()
    return chain


def recover_node(
    storage: Union[StorageEngine, StorageConfig],
    backend: Any = None,
):
    """``EthereumNode(storage=...)`` over a store that must hold history: an
    empty one is refused rather than given a fresh chain."""
    from repro.chain.node import EthereumNode

    engine = ensure_engine(storage)
    if not engine.holds_history():
        raise StorageError("this store holds no chain history to recover")
    return EthereumNode(backend=backend, storage=engine)


def verify_store(
    storage: Union[StorageEngine, StorageConfig],
    backend: Any = None,
) -> Dict[str, Any]:
    """Replay a store end to end and report what a recovery would produce."""
    chain = recover_chain(storage, backend=backend)
    return {
        "height": chain.height,
        "head_hash": chain.latest_block.hash,
        "state_digest": state_digest(chain.state),
        "pending_transactions": len(chain.mempool),
    }


def compact_store(
    storage: Union[StorageEngine, StorageConfig],
    backend: Any = None,
) -> Dict[str, Any]:
    """Offline compaction: recover, snapshot at the head, truncate the WAL.

    Returns before/after WAL entry counts plus the snapshot pointer, for the
    ``python -m repro storage compact`` subcommand.
    """
    engine = ensure_engine(storage)
    before = engine.wal.counts_by_kind()
    chain = recover_chain(engine, backend=backend)
    pointer = chain.store.snapshot(chain)
    engine.snapshots.prune(keep=2)
    return {
        "before": before,
        "after": engine.wal.counts_by_kind(),
        "snapshot": pointer,
    }
