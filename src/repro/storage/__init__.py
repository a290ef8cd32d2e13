"""repro.storage -- the durable, pluggable storage engine.

Everything below the chain and IPFS layers that needs to outlive a process
goes through this package: a :class:`StorageBackend` (in-memory or
append-only files), a write-ahead log of chain mutations, periodic
chain-state snapshots with replay-based crash recovery, cache-fronted blob
spaces for IPFS payloads, and an LRU read cache with hit/miss metrics.

See ``docs/architecture.md`` for the write and read paths.
"""

from repro.storage.backend import LogBackend, MemoryBackend, StorageBackend
from repro.utils.cache import LRUCache
from repro.storage.engine import (
    BlobSpace,
    ChainStore,
    StorageConfig,
    StorageEngine,
    compact_store,
    ensure_engine,
    recover_chain,
    recover_node,
    verify_store,
)
from repro.storage.snapshot import (
    SnapshotManager,
    encode_state,
    restore_state,
    state_digest,
)
from repro.storage.wal import WalEntry, WriteAheadLog

__all__ = [
    "BlobSpace",
    "ChainStore",
    "LRUCache",
    "LogBackend",
    "MemoryBackend",
    "SnapshotManager",
    "StorageBackend",
    "StorageConfig",
    "StorageEngine",
    "WalEntry",
    "WriteAheadLog",
    "compact_store",
    "encode_state",
    "ensure_engine",
    "recover_chain",
    "recover_node",
    "restore_state",
    "state_digest",
    "verify_store",
]
