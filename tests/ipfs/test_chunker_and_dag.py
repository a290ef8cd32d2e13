"""Tests for repro.ipfs.chunker and repro.ipfs.dag."""

import pytest

from repro.ipfs.blockstore import BlockStore
from repro.ipfs.chunker import DEFAULT_CHUNK_SIZE, chunk_bytes, iter_chunks
from repro.ipfs.cid import CID, RAW_CODEC
from repro.ipfs.dag import DagLink, DagNode


def raw_cid(chunk: bytes) -> str:
    return CID.from_bytes_payload(chunk, version=1, codec=RAW_CODEC).encode()


class TestChunker:
    def test_default_chunk_size_is_256_kib(self):
        assert DEFAULT_CHUNK_SIZE == 256 * 1024

    def test_small_payload_single_chunk(self):
        assert chunk_bytes(b"abc") == [b"abc"]

    def test_exact_multiple_of_chunk_size(self):
        payload = b"x" * 2048
        chunks = chunk_bytes(payload, chunk_size=1024)
        assert len(chunks) == 2
        assert all(len(chunk) == 1024 for chunk in chunks)

    def test_remainder_chunk(self):
        chunks = chunk_bytes(b"x" * 2500, chunk_size=1024)
        assert [len(c) for c in chunks] == [1024, 1024, 452]

    def test_reassembly(self):
        payload = bytes(range(256)) * 20
        assert b"".join(chunk_bytes(payload, chunk_size=100)) == payload

    def test_empty_payload_yields_single_empty_chunk(self):
        assert chunk_bytes(b"") == [b""]

    def test_paper_model_size_spans_two_chunks(self):
        # 317 KB model -> 2 chunks of 256 KiB chunking.
        assert len(chunk_bytes(b"\x01" * 317 * 1024)) == 2

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            list(iter_chunks(b"abc", chunk_size=0))


class TestDag:
    def test_leaf_node_roundtrip(self):
        node = DagNode(data=b"hello")
        assert DagNode.deserialize(node.serialize()).data == b"hello"

    def test_stored_cid_changes_with_content(self):
        # A node is stored under the dag-pb CID of its serialised form.
        store = BlockStore()
        assert store.add(DagNode(data=b"a").serialize()) != store.add(DagNode(data=b"b").serialize())

    def test_stored_cid_changes_with_links(self):
        store = BlockStore()
        link = DagLink(cid=raw_cid(b"chunk"), size=5)
        assert (store.add(DagNode(links=[link]).serialize())
                != store.add(DagNode(links=[]).serialize()))

    def test_total_size_sums_links_and_data(self):
        links = [DagLink(cid=raw_cid(b"aa"), size=2),
                 DagLink(cid=raw_cid(b"bbb"), size=3)]
        node = DagNode(data=b"x", links=links)
        assert node.total_size == 6

    def test_is_leaf(self):
        assert DagNode(data=b"x").is_leaf
        assert not DagNode(links=[DagLink(cid=raw_cid(b"a"), size=1)]).is_leaf

    def test_link_serialization_roundtrip(self):
        link = DagLink(cid=raw_cid(b"chunk"), size=5, name="part-0")
        node = DagNode(data=b"", links=[link])
        restored = DagNode.deserialize(node.serialize())
        assert restored.links == [link]
