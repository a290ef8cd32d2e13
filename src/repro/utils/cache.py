"""A small LRU read cache with hit/miss accounting.

Historically ``repro.storage.cache`` (which still re-exports it): IPFS
block fetches and snapshot loads go through one shared :class:`LRUCache` so
that a disk-backed store serves hot content at memory speed.  It lives in
``repro.utils`` because lower layers front hot paths with it too -- the
chain's address-checksum interning, for one -- and the chain package must
not depend on the storage package (storage imports the chain for recovery).
The cache never caches *writes* speculatively -- a `put` both stores and
freshens, mirroring a read-through / write-through cache -- and its
statistics are exported through the JSON-RPC ``RequestMetrics`` middleware
so scenario reports show cache effectiveness next to request counts.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable

from repro.errors import StorageError


class LRUCache:
    """Least-recently-used cache with entry-count capacity and stats.

    Thread-safe: the chain's address-interning cache is shared between the
    socket gateway's loop thread and its caller, and the check-then-act
    sequences below (hit test + ``move_to_end``, capacity test + eviction)
    would otherwise race.  A single lock keeps every operation atomic; the
    cost is nanoseconds against the lookups it fronts.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise StorageError(f"cache capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.puts = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, counting a hit or miss and freshening on hit."""
        with self._lock:
            if key in self._entries:
                self.hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self.misses += 1
            return default

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Look up without touching recency or statistics (for tests/metrics)."""
        return self._entries.get(key, default)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``; evicts the LRU entry when full."""
        with self._lock:
            self.puts += 1
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it was cached."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        """Drop every entry (statistics are preserved)."""
        with self._lock:
            self._entries.clear()

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 with no lookups)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """Canonical statistics spelling (alias of :meth:`snapshot`).

        ``repro.obs`` samples every registered cache through this one name.
        """
        return self.snapshot()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly statistics dump (deterministic across runs)."""
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "puts": self.puts,
            "hit_rate": round(self.hit_rate, 4),
        }
