"""Tests for repro.ipfs.node and repro.ipfs.swarm."""

import pytest

from repro.errors import BlockNotFoundError
from repro.ipfs import IpfsNode, Swarm


@pytest.fixture()
def swarm_pair():
    swarm = Swarm()
    provider = IpfsNode("provider", swarm)
    consumer = IpfsNode("consumer", swarm)
    swarm.connect(provider, consumer)
    return swarm, provider, consumer


class TestAdd:
    def test_small_payload_single_block(self):
        node = IpfsNode("solo")
        result = node.add_bytes(b"tiny payload")
        assert result.num_blocks == 1
        assert result.cid_string.startswith("Qm")
        assert node.cat(result.cid) == b"tiny payload"

    def test_large_payload_chunks_into_dag(self):
        node = IpfsNode("solo", chunk_size=1024)
        payload = bytes(range(256)) * 16  # 4 KiB
        result = node.add_bytes(payload)
        assert result.num_blocks == 5  # 4 leaves + root
        assert node.cat(result.cid) == payload

    def test_add_is_deterministic_and_deduplicating(self):
        node = IpfsNode("solo")
        first = node.add_bytes(b"same content")
        blocks_after_first = len(node.blockstore)
        second = node.add_bytes(b"same content")
        assert first.cid == second.cid
        assert len(node.blockstore) == blocks_after_first

    def test_add_pins_by_default(self):
        node = IpfsNode("solo")
        result = node.add_bytes(b"content")
        assert result.cid in node.pins

    def test_empty_payload(self):
        node = IpfsNode("solo")
        result = node.add_bytes(b"")
        assert node.cat(result.cid) == b""

    def test_stat_reports_size_and_blocks(self):
        node = IpfsNode("solo", chunk_size=1024)
        payload = b"z" * 2500
        result = node.add_bytes(payload)
        stat = node.stat(result.cid)
        assert stat["size"] == 2500
        assert stat["blocks"] == result.num_blocks


class TestSwarmRetrieval:
    def test_peer_fetches_missing_blocks(self, swarm_pair):
        swarm, provider, consumer = swarm_pair
        payload = b"\x07" * 5000
        result = provider.add_bytes(payload)
        assert not consumer.blockstore.has(result.cid)
        assert consumer.cat(result.cid) == payload
        assert consumer.blockstore.has(result.cid)  # cached after retrieval
        assert swarm.total_bytes_transferred() > 0

    def test_pin_fetches_remote_content_first(self, swarm_pair):
        _, provider, consumer = swarm_pair
        result = provider.add_bytes(b"model")
        consumer.pin(result.cid)
        assert result.cid in consumer.pins
        assert consumer.blockstore.has(result.cid)

    def test_offline_node_cannot_fetch(self):
        node = IpfsNode("offline")
        other = IpfsNode("other")
        result = other.add_bytes(b"content")
        with pytest.raises(BlockNotFoundError):
            node.cat(result.cid)

    def test_unconnected_peer_cannot_fetch(self):
        swarm = Swarm()
        provider = IpfsNode("p", swarm)
        loner = IpfsNode("l", swarm)  # registered but not connected
        result = provider.add_bytes(b"content")
        with pytest.raises(BlockNotFoundError):
            loner.cat(result.cid)

    def test_connect_all_meshes_every_node(self):
        swarm = Swarm()
        nodes = [IpfsNode(f"n{i}", swarm) for i in range(4)]
        swarm.connect_all()
        for node in nodes:
            assert len(swarm.peers_of(node)) == 3

    def test_peer_ids_unique(self):
        swarm = Swarm()
        names = [IpfsNode(f"n{i}", swarm).peer_id for i in range(5)]
        assert len(set(names)) == 5


class TestRepoStat:
    def test_repo_stat(self):
        node = IpfsNode("solo")
        node.add_bytes(b"content")
        stats = node.repo_stat()
        assert stats["num_blocks"] == 1
        assert stats["num_pins"] == 1
        assert stats["repo_size_bytes"] > 0
