"""Snapshot round-trip: a chain's state survives encode -> restore exactly."""

from __future__ import annotations

import pytest

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.contracts import default_registry
from repro.errors import StorageCorruptionError, StorageError
from repro.storage import MemoryBackend, SnapshotManager, encode_state, restore_state, state_digest
from repro.storage.snapshot import LATEST_SNAPSHOT_META, SNAPSHOT_NAMESPACE, snapshot_key
from repro.utils.units import ether_to_wei


@pytest.fixture()
def populated_node():
    """A node with balances, nonces and a deployed FLTask contract."""
    registry = default_registry()
    node = EthereumNode(backend=registry)
    faucet = Faucet(node)
    buyer = KeyPair.from_label("snap-buyer")
    owner = KeyPair.from_label("snap-owner")
    faucet.drip(buyer.address, ether_to_wei(2))
    faucet.drip(owner.address, ether_to_wei(1))
    spec = {"task": "digits", "model": [784, 10], "max_owners": 3}
    deployment = node.wait_for_receipt(
        node.deploy_contract(buyer, "FLTask", [spec], value=ether_to_wei("0.01")))
    task = deployment.contract_address
    node.wait_for_receipt(node.transact_contract(owner, task, "registerOwner", []))
    node.wait_for_receipt(node.transact_contract(owner, task, "uploadCid", ["Qm" + "1" * 44]))
    return node, registry, task


class TestStateRoundTrip:
    def test_encode_restore_is_exact(self, populated_node):
        node, registry, task = populated_node
        encoded = encode_state(node.chain.state)
        restored = restore_state(encoded, registry)
        assert encode_state(restored) == encoded
        assert state_digest(restored) == state_digest(node.chain.state)

    def test_contract_account_is_functional_after_restore(self, populated_node):
        node, registry, task = populated_node
        restored = restore_state(encode_state(node.chain.state), registry)
        account = restored.get_account(task)
        assert account.is_contract
        assert type(account.contract).__name__ == "FLTask"
        # Storage content carried over: the uploaded CID is at slot cids/0.
        assert account.storage["cids/0"] == "Qm" + "1" * 44
        assert account.storage["cidCount"] == 1

    def test_encoding_is_order_independent(self, populated_node):
        node, registry, _ = populated_node
        encoded = encode_state(node.chain.state)
        addresses = [entry["address"] for entry in encoded["accounts"]]
        assert addresses == sorted(addresses, key=str.lower)

    def test_unknown_contract_class_raises(self, populated_node):
        node, registry, _ = populated_node
        encoded = encode_state(node.chain.state)
        for entry in encoded["accounts"]:
            if entry["contract"]:
                entry["contract"] = "NoSuchContract"
        with pytest.raises(StorageError):
            restore_state(encoded, registry)

    def test_contract_without_registry_raises(self, populated_node):
        node, _, _ = populated_node
        with pytest.raises(StorageError):
            restore_state(encode_state(node.chain.state), None)


class TestSnapshotManager:
    def test_write_and_load_latest(self, populated_node):
        node, registry, _ = populated_node
        manager = SnapshotManager(MemoryBackend())
        pointer = manager.write(node.chain, wal_seq=41)
        assert pointer["height"] == node.chain.height
        payload = manager.load_latest()
        assert payload["head_hash"] == node.chain.latest_block.hash
        assert payload["wal_seq"] == 41
        restored = restore_state(payload["state"], registry)
        assert state_digest(restored) == state_digest(node.chain.state)

    def test_load_latest_without_snapshot_is_none(self):
        assert SnapshotManager(MemoryBackend()).load_latest() is None

    def test_tampered_pointer_fails_loudly(self, populated_node):
        node, _, _ = populated_node
        backend = MemoryBackend()
        manager = SnapshotManager(backend)
        manager.write(node.chain, wal_seq=0)
        pointer = backend.get_meta(LATEST_SNAPSHOT_META)
        pointer["head_hash"] = "0x" + "ee" * 32
        backend.put_meta(LATEST_SNAPSHOT_META, pointer)
        with pytest.raises(StorageCorruptionError):
            manager.load_latest()

    def test_prune_keeps_newest(self, populated_node):
        node, _, _ = populated_node
        manager = SnapshotManager(MemoryBackend())
        heights = []
        for _ in range(3):
            node.mine(1)
            heights.append(node.chain.height)
            manager.write(node.chain, wal_seq=0)
        removed = manager.prune(keep=2)
        assert removed == 1
        assert manager.heights() == heights[-2:]


class TestSnapshotsByHeight:
    def test_key_is_zero_padded_so_keys_sort_by_height(self):
        assert snapshot_key(7) == "snapshot-000000000007"
        assert sorted([snapshot_key(10), snapshot_key(9)]) == [snapshot_key(9), snapshot_key(10)]

    def test_load_at_reads_a_height_the_pointer_has_left(self, populated_node):
        node, _, _ = populated_node
        manager = SnapshotManager(MemoryBackend())
        first = manager.write(node.chain, wal_seq=1)["height"]
        first_hash = node.chain.latest_block.hash
        node.mine(1)
        manager.write(node.chain, wal_seq=2)
        payload = manager.load_at(first)
        assert payload["height"] == first
        assert payload["head_hash"] == first_hash
        assert manager.load_latest()["height"] == first + 1

    def test_load_at_refuses_a_payload_filed_under_another_height(self, populated_node):
        node, _, _ = populated_node
        backend = MemoryBackend()
        manager = SnapshotManager(backend)
        height = manager.write(node.chain)["height"]
        blob = backend.get_blob(SNAPSHOT_NAMESPACE, snapshot_key(height))
        backend.put_blob(SNAPSHOT_NAMESPACE, snapshot_key(height + 5), blob)
        with pytest.raises(StorageCorruptionError, match="claims height"):
            manager.load_at(height + 5)

    def test_delete_at_drops_one_snapshot(self, populated_node):
        node, _, _ = populated_node
        manager = SnapshotManager(MemoryBackend())
        height = manager.write(node.chain)["height"]
        assert manager.delete_at(height)
        assert not manager.delete_at(height)
        assert manager.heights() == []
        with pytest.raises(StorageError):
            manager.load_at(height)
