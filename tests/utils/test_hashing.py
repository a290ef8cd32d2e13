"""Tests for repro.utils.hashing."""

import pytest

from repro.utils.hashing import hash_json, keccak256, sha256


class TestSha256:
    def test_length_is_32_bytes(self):
        assert len(sha256(b"hello")) == 32

    def test_deterministic(self):
        assert sha256(b"abc") == sha256(b"abc")

    def test_different_inputs_differ(self):
        assert sha256(b"abc") != sha256(b"abd")

    def test_empty_input_allowed(self):
        assert len(sha256(b"")) == 32

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            sha256("not bytes")


class TestKeccak256:
    def test_length_is_32_bytes(self):
        assert len(keccak256(b"hello")) == 32

    def test_differs_from_sha256(self):
        assert keccak256(b"hello") != sha256(b"hello")

    def test_accepts_bytearray(self):
        assert keccak256(bytearray(b"xyz")) == keccak256(b"xyz")

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            keccak256("hello")


class TestHashJson:
    def test_key_order_does_not_matter(self):
        assert hash_json({"a": 1, "b": 2}) == hash_json({"b": 2, "a": 1})

    def test_value_change_changes_hash(self):
        assert hash_json({"a": 1}) != hash_json({"a": 2})

    def test_bytes_values_are_refused(self):
        # No fallback encoder: bytes must be hex-encoded by the caller.
        with pytest.raises(TypeError):
            hash_json({"payload": b"\x01\x02"})

    def test_nested_structures(self):
        obj = {"list": [1, 2, {"inner": "x"}], "num": 3.5}
        assert hash_json(obj) == hash_json({"num": 3.5, "list": [1, 2, {"inner": "x"}]})

    def test_unserializable_object_raises(self):
        with pytest.raises(TypeError):
            hash_json({"bad": object()})
