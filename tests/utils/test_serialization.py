"""Tests for repro.utils.serialization."""

import pytest

from repro.utils.serialization import (
    canonical_dumps,
    canonical_loads,
    rlp_encode,
)
from tests.oracles import rlp_decode


class TestCanonicalJson:
    def test_roundtrip_simple(self):
        obj = {"a": 1, "b": "two", "c": [1, 2, 3]}
        assert canonical_loads(canonical_dumps(obj)) == obj

    def test_roundtrip_bytes(self):
        obj = {"payload": b"\x00\x01\x02", "nested": [b"\xff"]}
        assert canonical_loads(canonical_dumps(obj)) == obj

    def test_key_order_normalized(self):
        assert canonical_dumps({"b": 1, "a": 2}) == canonical_dumps({"a": 2, "b": 1})

    def test_no_whitespace_in_output(self):
        assert " " not in canonical_dumps({"a": [1, 2], "b": {"c": 3}})

    def test_tuple_becomes_list(self):
        assert canonical_loads(canonical_dumps({"t": (1, 2)})) == {"t": [1, 2]}


class TestRlp:
    def test_single_byte_below_0x80_encodes_as_itself(self):
        assert rlp_encode(b"a") == b"a"

    def test_short_string(self):
        assert rlp_encode(b"dog") == b"\x83dog"

    def test_empty_list(self):
        assert rlp_encode([]) == b"\xc0"

    def test_nested_list_roundtrip(self):
        value = [b"cat", [b"dog", b"mouse"], b""]
        assert rlp_decode(rlp_encode(value)) == value

    def test_integers_encoded_minimally(self):
        assert rlp_encode(0) == b"\x80"
        assert rlp_encode(15) == b"\x0f"
        assert rlp_encode(1024) == b"\x82\x04\x00"

    def test_long_string_uses_length_of_length(self):
        payload = b"x" * 100
        encoded = rlp_encode(payload)
        assert encoded[0] == 0xB8
        assert rlp_decode(encoded) == payload

    def test_long_list(self):
        value = [b"item-%d" % i for i in range(30)]
        assert rlp_decode(rlp_encode(value)) == value

    def test_negative_integer_rejected(self):
        with pytest.raises(ValueError):
            rlp_encode(-1)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            rlp_encode(object())

    def test_string_input_encoded_as_utf8(self):
        assert rlp_decode(rlp_encode("dog")) == b"dog"

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueError):
            rlp_decode(rlp_encode(b"dog") + b"\x00")
