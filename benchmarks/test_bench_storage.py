"""Storage engine micro-benchmarks: WAL overhead, recovery, cache benefit.

The storage seam sits under every block and blob, so its cost bounds chain
throughput at scale.  Four measurements:

* transaction-inclusion throughput with no store, a memory store and a
  log store (the WAL's marginal cost on the hot path);
* replay-based recovery time for a WAL-only store vs a snapshotted one
  (what the snapshot cadence buys);
* cold vs hot blob reads through the LRU cache.

Numbers print as operations/second so they land in the bench logs next to
the RPC and simnet throughputs.
"""

from __future__ import annotations

import shutil
import tempfile
import time

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.contracts import default_registry
from repro.storage import StorageConfig, StorageEngine, recover_chain
from repro.utils.units import ether_to_wei

from .conftest import mean_seconds, print_table

TRANSFERS_PER_ROUND = 40
ACCOUNT = KeyPair.from_label("bench-storage-account")


def _node(engine: StorageEngine | None) -> EthereumNode:
    node = EthereumNode(backend=default_registry(), storage=engine)
    Faucet(node).drip(ACCOUNT.address, ether_to_wei(50))
    return node


def _pump_transfers(node: EthereumNode, count: int = TRANSFERS_PER_ROUND) -> None:
    for _ in range(count):
        node.wait_for_receipt(
            node.sign_and_send(ACCOUNT, to="0x" + "77" * 20, value=1))


def test_bench_inclusion_without_store(benchmark):
    """Baseline: submit-and-mine throughput with no storage engine."""
    rate = TRANSFERS_PER_ROUND / mean_seconds(
        benchmark, lambda: _pump_transfers(_node(None)), rounds=3, iterations=1)
    print_table("inclusion throughput", [("no store", f"{rate:,.0f} tx/s")],
                ["configuration", "throughput"])


def test_bench_inclusion_with_memory_wal(benchmark):
    """The default MemoryBackend WAL on the hot path."""
    rate = TRANSFERS_PER_ROUND / mean_seconds(
        benchmark, lambda: _pump_transfers(_node(StorageEngine())), rounds=3, iterations=1)
    print_table("inclusion throughput", [("memory WAL", f"{rate:,.0f} tx/s")],
                ["configuration", "throughput"])


def test_bench_inclusion_with_log_wal(benchmark):
    """The durable LogBackend WAL (file appends) on the hot path."""
    def run() -> None:
        directory = tempfile.mkdtemp(prefix="bench-store-")
        try:
            engine = StorageEngine(
                StorageConfig(backend="log", directory=directory))
            _pump_transfers(_node(engine))
            engine.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    rate = TRANSFERS_PER_ROUND / mean_seconds(benchmark, run, rounds=3, iterations=1)
    print_table("inclusion throughput", [("log WAL", f"{rate:,.0f} tx/s")],
                ["configuration", "throughput"])


def test_bench_recovery_replay_vs_snapshot(benchmark):
    """Recovery cost: full WAL re-execution vs snapshot restore + suffix."""
    replay_engine = StorageEngine(
        StorageConfig(snapshot_interval_blocks=10_000))  # never snapshots
    _pump_transfers(_node(replay_engine))
    snapshot_engine = StorageEngine(StorageConfig(snapshot_interval_blocks=8))
    _pump_transfers(_node(snapshot_engine))

    snapshot_mean = mean_seconds(
        benchmark, lambda: recover_chain(snapshot_engine, backend=default_registry()),
        rounds=3, iterations=1)

    started = time.perf_counter()
    recover_chain(replay_engine, backend=default_registry())
    replay_elapsed = time.perf_counter() - started

    print_table(
        "recovery time",
        [("snapshot + suffix", f"{snapshot_mean * 1e3:,.1f} ms"),
         ("full WAL replay", f"{replay_elapsed * 1e3:,.1f} ms")],
        ["strategy", "time"],
    )


def test_bench_cache_hot_vs_cold_blob_reads(benchmark):
    """LRU-fronted blob reads: hot hits vs forced cold misses."""
    engine = StorageEngine(StorageConfig(cache_capacity=64))
    space = engine.blob_space("bench")
    payload = b"\x5a" * 65536
    for n in range(32):
        space.put(f"blob-{n}", payload)

    def hot_reads() -> None:
        for n in range(32):
            space.get(f"blob-{n}")

    rate = 32 / mean_seconds(benchmark, hot_reads, rounds=5, iterations=5)
    print_table(
        "blob reads",
        [("cache-hot", f"{rate:,.0f} reads/s"),
         ("hit rate", f"{engine.cache.hit_rate:.2%}")],
        ["metric", "value"],
    )
