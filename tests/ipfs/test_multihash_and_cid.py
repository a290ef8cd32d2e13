"""Tests for repro.ipfs.multihash and repro.ipfs.cid."""

import pytest

from repro.errors import InvalidCidError
from repro.ipfs.cid import CID, DAG_PB_CODEC, RAW_CODEC
from repro.ipfs.multihash import Multihash, SHA2_256_CODE


class TestMultihash:
    def test_sha2_256_digest_length(self):
        mh = Multihash.sha2_256(b"payload")
        assert mh.code == SHA2_256_CODE
        assert mh.length == 32

    def test_encode_decode_roundtrip(self):
        mh = Multihash.sha2_256(b"payload")
        assert Multihash.decode(mh.encode()) == mh

    def test_encoding_prefixes_code_and_length(self):
        mh = Multihash.sha2_256(b"payload")
        encoded = mh.encode()
        assert encoded[0] == SHA2_256_CODE
        assert encoded[1] == 32

    def test_unknown_code_rejected(self):
        with pytest.raises(InvalidCidError):
            Multihash(code=0x99, digest=b"\x00" * 32)

    def test_truncated_encoding_rejected(self):
        mh = Multihash.sha2_256(b"payload")
        with pytest.raises(InvalidCidError):
            Multihash.decode(mh.encode()[:-1])


class TestCid:
    def test_cidv0_starts_with_qm(self):
        cid = CID.from_bytes_payload(b"model bytes")
        assert cid.version == 0
        assert cid.encode().startswith("Qm")

    def test_cidv0_length_is_46_characters(self):
        # The canonical "Qm..." form the paper stores on-chain.
        assert len(CID.from_bytes_payload(b"model").encode()) == 46

    def test_digest_is_32_bytes(self):
        assert len(CID.from_bytes_payload(b"model").digest) == 32

    def test_same_content_same_cid(self):
        assert CID.from_bytes_payload(b"abc") == CID.from_bytes_payload(b"abc")

    def test_different_content_different_cid(self):
        assert CID.from_bytes_payload(b"abc") != CID.from_bytes_payload(b"abd")

    def test_parse_roundtrip_v0(self):
        cid = CID.from_bytes_payload(b"abc")
        assert CID.parse(cid.encode()) == cid

    def test_parse_roundtrip_v1(self):
        cid = CID.from_bytes_payload(b"abc", version=1, codec=RAW_CODEC)
        text = cid.encode()
        assert text.startswith("b")
        assert CID.parse(text) == cid

    def test_equality_with_string(self):
        cid = CID.from_bytes_payload(b"abc")
        assert cid == cid.encode()
        assert cid != "Qminvalid"

    def test_parse_garbage_rejected(self):
        with pytest.raises(InvalidCidError):
            CID.parse("not-a-cid")

    def test_codec_names(self):
        assert CID.from_bytes_payload(b"abc").codec_name == "dag-pb"
        assert CID.from_bytes_payload(b"abc", version=1, codec=RAW_CODEC).codec_name == "raw"

    def test_parse_wrong_type_rejected(self):
        with pytest.raises(InvalidCidError):
            CID.parse(12345)

    def test_unsupported_version_rejected(self):
        with pytest.raises(InvalidCidError):
            CID(version=2, codec=DAG_PB_CODEC, multihash=Multihash.sha2_256(b"x"))

    def test_hashable(self):
        cids = {CID.from_bytes_payload(b"a"), CID.from_bytes_payload(b"a")}
        assert len(cids) == 1

    def test_ordering_is_total(self):
        a = CID.from_bytes_payload(b"a")
        b = CID.from_bytes_payload(b"b")
        assert (a < b) != (b < a)
