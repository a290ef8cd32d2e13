"""Tests for repro.ipfs.blockstore and repro.ipfs.pinning."""

import os
from unittest import mock

import pytest

from repro.errors import BlockNotFoundError, InvalidCidError
from repro.ipfs import multihash
from repro.ipfs.blockstore import BlockStore
from repro.ipfs.cid import CID, RAW_CODEC
from repro.ipfs.node import IpfsNode
from repro.ipfs.pinning import PinSet
from repro.storage.engine import StorageEngine


def cid_of(payload: bytes) -> CID:
    return CID.from_bytes_payload(payload, version=1, codec=RAW_CODEC)


@pytest.fixture(params=["memory", "blob space"])
def store(request):
    """An empty block store on each substrate: every method has one body."""
    if request.param == "memory":
        return BlockStore()
    return BlockStore(space=StorageEngine().blob_space("ipfs/n"))


class TestBlockStore:
    def test_put_and_get(self, store):
        cid = cid_of(b"block")
        store.put(cid, b"block")
        assert store.get(cid) == b"block"
        assert cid in store
        assert len(store) == 1

    def test_put_verifies_content(self, store):
        with pytest.raises(InvalidCidError):
            store.put(cid_of(b"expected"), b"tampered")

    def test_get_missing_raises(self, store):
        with pytest.raises(BlockNotFoundError):
            store.get(cid_of(b"missing"))

    def test_idempotent_put(self, store):
        cid = cid_of(b"block")
        store.put(cid, b"block")
        store.put(cid, b"block")
        assert len(store) == 1

    def test_total_bytes(self, store):
        store.put(cid_of(b"aa"), b"aa")
        store.put(cid_of(b"bbbb"), b"bbbb")
        assert store.total_bytes() == 6

    def test_cids_and_find(self, store):
        first, second = store.add(b"one", version=1, codec=RAW_CODEC), \
            store.add(b"two", version=1, codec=RAW_CODEC)
        assert store.find(first) == b"one" and store.find(second.encode()) == b"two"
        assert store.find(cid_of(b"missing")) is None

    def test_accepts_string_cids(self, store):
        cid = cid_of(b"block")
        store.put(cid.encode(), b"block")
        assert store.get(cid.encode()) == b"block"

    def test_has_handles_invalid_cid_gracefully(self, store):
        assert not store.has("definitely-not-a-cid")

    def test_add_keys_a_block_by_its_own_hash(self, store):
        assert store.add(b"block", version=1, codec=RAW_CODEC) == cid_of(b"block")
        assert store.get(cid_of(b"block").encode()) == b"block"

    def test_a_mismatched_block_never_enters(self, store):
        with pytest.raises(InvalidCidError):
            store.put(cid_of(b"expected"), b"tampered")
        with pytest.raises(InvalidCidError):
            store.put(cid_of(b"expected").encode(), b"tampered")
        assert len(store) == 0 and store.find(cid_of(b"expected")) is None

    def test_a_non_canonical_cid_string_still_resolves(self, store):
        canonical = store.add(b"leaf", version=1, codec=RAW_CODEC).encode()
        shouted = "b" + canonical[1:].upper()
        assert shouted != canonical
        assert store.get(shouted) == b"leaf" and store.has(shouted)


def counting_hashes():
    return mock.patch.object(multihash, "sha256", wraps=multihash.sha256)


class TestAddHashesEachBlockOnce:
    @pytest.mark.parametrize("chunks", [1, 2, 5])
    def test_an_n_chunk_add_hashes_n_plus_one_blocks(self, chunks):
        node = IpfsNode("n", chunk_size=1_024)
        payload = os.urandom(1_024 * chunks - 7)
        with counting_hashes() as sha256:
            added = node.add_bytes(payload)
        # One hash a stored block: n leaves and the root (one block for one chunk).
        assert sha256.call_count == added.num_blocks == (1 if chunks == 1 else chunks + 1)
        assert node.cat(added.cid) == payload

    def test_cat_parses_only_the_root_cid(self):
        node = IpfsNode("n", chunk_size=1_024)
        added = node.add_bytes(os.urandom(5_000))
        with mock.patch.object(CID, "parse", wraps=CID.parse) as parse:
            node.cat(added.cid_string)
        assert parse.call_count == 1

    def test_cat_resolves_a_non_canonical_leaf_cid(self):
        node = IpfsNode("n", chunk_size=1_024)
        node.add_bytes(os.urandom(3_000))
        leaf = next(cid for cid in node.blockstore._space.keys() if cid.startswith("b"))
        assert node.cat("b" + leaf[1:].upper()) == node.blockstore.get(leaf)


class TestPinSet:
    def test_pin_and_check(self):
        pins = PinSet()
        cid = cid_of(b"model")
        pins.pin(cid)
        assert cid in pins
        assert cid_of(b"missing") not in pins

    def test_len_counts_pins(self):
        pins = PinSet()
        pins.pin(cid_of(b"a"))
        pins.pin(cid_of(b"b"))
        assert len(pins) == 2

    def test_a_pin_is_keyed_by_the_canonical_cid(self):
        # The same CID as an object, its string and a non-canonical
        # (upper-case base32) spelling is one pin, not three.
        pins = PinSet()
        cid = cid_of(b"model")
        text = cid.encode()
        pins.pin(cid)
        pins.pin(text)
        pins.pin("b" + text[1:].upper())
        assert len(pins) == 1
        assert "b" + text[1:].upper() in pins

    def test_a_malformed_cid_is_not_pinned(self):
        pins = PinSet()
        pins.pin(cid_of(b"model"))
        assert "not-a-cid" not in pins
