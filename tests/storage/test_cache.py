"""LRU read-cache behaviour: recency, eviction, statistics."""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from repro.storage import LRUCache


class TestLRUCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(StorageError):
            LRUCache(0)

    def test_get_put_and_miss_accounting(self):
        cache = LRUCache(2)
        assert cache.get("a") is None
        cache.put("a", b"1")
        assert cache.get("a") == b"1"
        assert (cache.hits, cache.misses, cache.puts) == (1, 1, 1)

    def test_least_recently_used_entry_is_evicted_first(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # freshen "a"; "b" is now LRU
        cache.put("c", 3)       # evicts "b"
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_put_refreshes_recency_without_eviction(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)      # refresh, not insert
        cache.put("c", 3)       # evicts "b" (LRU), not "a"
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_clear(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.puts == 2  # statistics survive clear

    def test_hit_rate_and_snapshot(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        assert cache.hit_rate == 0.5
        snapshot = cache.snapshot()
        assert snapshot == {
            "capacity": 2, "entries": 1, "hits": 1, "misses": 1,
            "evictions": 0, "puts": 1, "hit_rate": 0.5,
        }

    def test_heavy_churn_counts_are_consistent(self):
        cache = LRUCache(8)
        for n in range(100):
            cache.put(n, n)
            cache.get(n)                    # hit
            cache.get(n - 50)               # mostly misses
        assert len(cache) == 8
        assert cache.evictions == 100 - 8
        assert cache.hits + cache.misses == 200
