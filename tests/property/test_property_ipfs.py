"""Property-based tests for IPFS invariants (content addressing, chunking)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipfs import CID, IpfsNode, Swarm, chunk_bytes
from repro.ipfs.cid import RAW_CODEC


class TestContentAddressing:
    @given(st.binary(max_size=2048))
    @settings(max_examples=60)
    def test_cid_roundtrips_through_text(self, payload):
        cid = CID.from_bytes_payload(payload)
        assert CID.parse(cid.encode()) == cid
        v1 = CID(version=1, codec=cid.codec, multihash=cid.multihash)
        assert CID.parse(v1.encode()) == v1

    @given(st.binary(max_size=1024), st.binary(max_size=1024))
    @settings(max_examples=40)
    def test_equal_cid_iff_equal_content(self, a, b):
        cid_a = CID.from_bytes_payload(a, version=1, codec=RAW_CODEC)
        cid_b = CID.from_bytes_payload(b, version=1, codec=RAW_CODEC)
        assert (cid_a == cid_b) == (a == b)


class TestChunkingProperties:
    @given(st.binary(max_size=5000), st.integers(min_value=1, max_value=700))
    @settings(max_examples=60)
    def test_chunks_reassemble_exactly(self, payload, chunk_size):
        assert b"".join(chunk_bytes(payload, chunk_size)) == payload

    @given(st.binary(min_size=1, max_size=5000), st.integers(min_value=1, max_value=700))
    @settings(max_examples=60)
    def test_every_chunk_within_size_limit(self, payload, chunk_size):
        chunks = chunk_bytes(payload, chunk_size)
        assert all(1 <= len(chunk) <= chunk_size for chunk in chunks)


class TestNodeRoundtrip:
    @given(st.binary(max_size=4096))
    @settings(max_examples=30, deadline=None)
    def test_add_then_cat_returns_payload(self, payload):
        node = IpfsNode("prop", chunk_size=512)
        result = node.add_bytes(payload)
        assert node.cat(result.cid) == payload
        assert result.size == len(payload)

    @given(st.binary(min_size=1, max_size=4096))
    @settings(max_examples=20, deadline=None)
    def test_peer_retrieval_preserves_content(self, payload):
        swarm = Swarm()
        provider = IpfsNode("provider", swarm, chunk_size=512)
        consumer = IpfsNode("consumer", swarm, chunk_size=512)
        swarm.connect_all()
        result = provider.add_bytes(payload)
        assert consumer.cat(result.cid) == payload
