"""Engine composition: blob spaces, cache fronting, chain store, gateway."""

from __future__ import annotations

import json

import pytest

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.contracts import default_registry
from repro.errors import StorageError
from repro.ipfs import IpfsNode, Swarm
from repro.ipfs.blockstore import BlockStore
from repro.rpc import JsonRpcGateway
from repro.storage import StorageConfig, StorageEngine, compact_store, ensure_engine
from repro.utils.units import ether_to_wei


class TestStorageConfig:
    def test_defaults_are_memory(self):
        config = StorageConfig()
        assert config.backend == "memory"
        assert StorageEngine(config).is_persistent is False

    def test_log_backend_requires_directory(self):
        with pytest.raises(StorageError):
            StorageConfig(backend="log")

    def test_unknown_backend_rejected(self):
        with pytest.raises(StorageError):
            StorageConfig(backend="redis")

    def test_ensure_engine_normalizes(self):
        engine = StorageEngine()
        assert ensure_engine(engine) is engine
        assert isinstance(ensure_engine(StorageConfig()), StorageEngine)
        assert ensure_engine(None) is None
        with pytest.raises(StorageError):
            ensure_engine("nope")


class TestBlobSpaces:
    def test_write_through_cache(self):
        engine = StorageEngine()
        space = engine.blob_space("ns")
        space.put("k", b"payload")
        assert engine.cache.peek(("ns", "k")) == b"payload"
        assert space.get("k") == b"payload"
        assert engine.cache.hits == 1  # served from cache, not the backend

    def test_cache_miss_falls_through_and_repopulates(self):
        engine = StorageEngine(StorageConfig(cache_capacity=1))
        space = engine.blob_space("ns")
        space.put("a", b"1")
        space.put("b", b"2")  # evicts ("ns", "a")
        assert space.get("a") == b"1"  # backend read
        assert engine.cache.misses == 1
        assert engine.cache.peek(("ns", "a")) == b"1"

    def test_namespaces_are_isolated(self):
        engine = StorageEngine()
        engine.blob_space("one").put("k", b"1")
        engine.blob_space("two").put("k", b"2")
        assert engine.blob_space("one").get("k") == b"1"
        assert engine.blob_space("two").get("k") == b"2"

    def test_delete_invalidates_cache(self):
        engine = StorageEngine()
        space = engine.blob_space("ns")
        space.put("k", b"x")
        assert space.delete("k") is True
        assert not space.has("k")
        assert engine.cache.peek(("ns", "k")) is None


class TestBlockStoreOnBlobSpace:
    def test_ipfs_node_blocks_live_in_the_engine(self, tmp_path):
        engine = StorageEngine(StorageConfig(backend="log",
                                             directory=str(tmp_path / "s")))
        store = BlockStore(space=engine.blob_space("ipfs/n1"))
        node = IpfsNode("n1", Swarm(), blockstore=store)
        added = node.add_bytes(b"model bytes" * 100)
        assert node.cat(added.cid) == b"model bytes" * 100
        assert len(store) > 0
        assert engine.backend.blob_keys("ipfs/n1")  # durably on disk
        engine.close()

        # A fresh engine over the same directory still serves the content.
        reopened = StorageEngine(StorageConfig(backend="log",
                                               directory=str(tmp_path / "s")))
        revived = IpfsNode("n1", Swarm(),
                           blockstore=BlockStore(space=reopened.blob_space("ipfs/n1")))
        assert revived.cat(added.cid) == b"model bytes" * 100
        reopened.close()

    def test_repeated_cat_hits_the_cache(self):
        engine = StorageEngine()
        node = IpfsNode("n", Swarm(),
                        blockstore=BlockStore(space=engine.blob_space("ipfs/n")))
        added = node.add_bytes(b"hot content")
        engine.cache.hits = engine.cache.misses = 0
        node.cat(added.cid)
        node.cat(added.cid)
        assert engine.cache.hits >= 2
        assert engine.cache.misses == 0


class TestChainStoreSnapshots:
    def test_periodic_snapshot_and_compaction(self):
        engine = StorageEngine(StorageConfig(snapshot_interval_blocks=2))
        node = EthereumNode(backend=default_registry(), storage=engine)
        keys = KeyPair.from_label("interval-sender")
        Faucet(node).drip(keys.address, ether_to_wei(1))
        for n in range(5):
            node.wait_for_receipt(
                node.sign_and_send(keys, to="0x" + "55" * 20, value=n + 1))
        pointer = engine.snapshots.latest_pointer()
        assert pointer["height"] == 4  # snapshots at 2 and 4
        assert engine.snapshots.heights() == [2, 4]
        assert engine.wal.archived_block_numbers() == [1, 2, 3, 4]
        # Only post-snapshot entries remain live.
        assert all(entry.seq > pointer["wal_seq"] for entry in engine.wal.entries())

    def test_offline_compact_store(self, tmp_path):
        directory = str(tmp_path / "s")
        engine = StorageEngine(StorageConfig(backend="log", directory=directory,
                                             snapshot_interval_blocks=100))
        node = EthereumNode(backend=default_registry(), storage=engine)
        keys = KeyPair.from_label("compact-sender")
        Faucet(node).drip(keys.address, ether_to_wei(1))
        for _ in range(3):
            node.wait_for_receipt(node.sign_and_send(keys, to="0x" + "66" * 20, value=1))
        engine.close()

        result = compact_store(StorageConfig(backend="log", directory=directory),
                               backend=default_registry())
        assert sum(result["before"].values()) > sum(result["after"].values())
        assert result["after"]["block"] == 0
        assert result["snapshot"]["height"] == 3

    def test_describe_is_json_safe(self):
        engine = StorageEngine()
        EthereumNode(backend=default_registry(), storage=engine)
        description = engine.describe()
        json.dumps(description)
        assert description["config"]["backend"] == "memory"
        assert set(description["wal"]) == {"mint", "tx", "block"}


class TestGatewayIntegration:
    def test_storage_methods_and_metrics_gauge(self):
        engine = StorageEngine()
        node = EthereumNode(backend=default_registry(), storage=engine)
        gateway = JsonRpcGateway(node=node)
        gateway.attach_storage(engine)
        assert "storage_stats" in gateway.methods()

        stats = gateway.call("storage_stats")
        assert stats["config"]["backend"] == "memory"
        assert stats["cache"]["capacity"] == engine.cache.capacity

        snapshot = gateway.metrics.snapshot(include_latency=False)
        assert snapshot["storage_cache"]["capacity"] == engine.cache.capacity
        assert snapshot["by_method"]["storage_stats"] == 1


class TestReviewRegressions:
    """Regression tests for issues found in code review."""

    def test_fresh_chain_refuses_a_store_with_history(self, tmp_path):
        directory = str(tmp_path / "s")
        engine = StorageEngine(StorageConfig(backend="log", directory=directory))
        node = EthereumNode(backend=default_registry(), storage=engine)
        keys = KeyPair.from_label("history-sender")
        Faucet(node).drip(keys.address, ether_to_wei(1))
        node.wait_for_receipt(node.sign_and_send(keys, to="0x" + "88" * 20, value=1))
        engine.close()

        # A second, brand-new run pointed at the same directory must refuse
        # instead of interleaving two incompatible chains.
        reopened = StorageEngine(StorageConfig(backend="log", directory=directory))
        with pytest.raises(StorageError, match="already holds chain history"):
            EthereumNode(backend=default_registry(), storage=reopened)
        reopened.close()

        # Recovery remains the legitimate way in.
        from repro.storage import recover_node
        revived = recover_node(StorageConfig(backend="log", directory=directory),
                               backend=default_registry())
        assert revived.chain.height == 1
        revived.storage.close()

    def test_node_rejects_chain_plus_construction_args(self):
        donor = EthereumNode(backend=default_registry())
        with pytest.raises(ValueError):
            EthereumNode(chain=donor.chain, backend=default_registry())

    def test_blockstore_total_bytes_via_stat(self, tmp_path):
        engine = StorageEngine(StorageConfig(backend="log",
                                             directory=str(tmp_path / "s")))
        store = BlockStore(space=engine.blob_space("ipfs/n"))
        node = IpfsNode("n", Swarm(), blockstore=store)
        node.add_bytes(b"payload" * 1000)
        assert store.total_bytes() > 0
        assert store.total_bytes() == sum(
            len(store.get(cid)) for cid in store.cids())
        engine.close()

    def test_recover_node_shares_one_engine_with_the_chain(self, tmp_path):
        """recover_node must not open a second engine over the same store."""
        from repro.storage import recover_node
        directory = str(tmp_path / "s")
        engine = StorageEngine(StorageConfig(backend="log", directory=directory))
        node = EthereumNode(backend=default_registry(), storage=engine)
        keys = KeyPair.from_label("shared-engine-sender")
        Faucet(node).drip(keys.address, ether_to_wei(1))
        node.wait_for_receipt(node.sign_and_send(keys, to="0x" + "99" * 20, value=1))
        engine.close()

        revived = recover_node(StorageConfig(backend="log", directory=directory),
                               backend=default_registry())
        assert revived.storage is revived.chain.store.engine
        before = revived.storage.wal.last_seq()
        Faucet(revived).drip(keys.address, 1)  # post-recovery durable write
        assert revived.storage.wal.last_seq() == before + 1
        revived.storage.close()

    def test_blob_key_ending_in_tmp_does_not_collide(self, tmp_path):
        """A key like 'model.tmp' must survive a write to sibling 'model'."""
        from repro.storage import LogBackend
        backend = LogBackend(tmp_path / "s")
        backend.put_blob("ns", "model.tmp", b"first")
        backend.put_blob("ns", "model", b"second")
        backend.sync()
        assert backend.get_blob("ns", "model.tmp") == b"first"
        assert backend.get_blob("ns", "model") == b"second"
        backend.close()

    def test_dot_prefixed_keys_are_hashed_not_verbatim(self, tmp_path):
        from repro.storage import LogBackend
        backend = LogBackend(tmp_path / "s")
        backend.put_blob("ns", ".hidden", b"x")
        backend.sync()
        assert backend.get_blob("ns", ".hidden") == b"x"
        # The on-disk file must not be dot-prefixed (reserved for temps).
        files = [p.name for p in (tmp_path / "s" / "blobs" / "ns").iterdir()]
        assert all(not name.startswith(".") for name in files)
        backend.close()
