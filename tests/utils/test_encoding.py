"""Tests for repro.utils.encoding."""

import pytest

from repro.utils.encoding import (
    HexString,
    b32_decode,
    b32_encode,
    b58_decode,
    b58_encode,
    from_hex,
    to_hex,
)


class TestHex:
    def test_roundtrip(self):
        assert from_hex(to_hex(b"\x00\x01\xff")) == b"\x00\x01\xff"

    def test_prefix_present(self):
        assert to_hex(b"\xab") == "0xab"

    def test_from_hex_accepts_unprefixed(self):
        assert from_hex("abcd") == b"\xab\xcd"

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            from_hex("0xabc")

    def test_invalid_characters_rejected(self):
        with pytest.raises(ValueError):
            from_hex("0xzz")

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            from_hex(123)

    def test_upper_case_and_prefix_accepted(self):
        assert from_hex("0XABcd") == b"\xab\xcd"
        assert from_hex("0x") == from_hex("") == b""

    @pytest.mark.parametrize("text", ["0x ab ", "0xab cd", "ab\ncd", "0x\tab"])
    def test_whitespace_is_a_bad_digit(self, text):
        with pytest.raises(ValueError, match="non-hex character at offset"):
            from_hex(text)

    def test_an_error_names_length_and_offset_not_the_text(self):
        text = "0x" + "ab" * 500 + "zz"
        with pytest.raises(ValueError) as caught:
            from_hex(text)
        assert str(caught.value) == "non-hex character at offset 1002 of 1004"
        with pytest.raises(ValueError) as caught:
            from_hex(text[:-1] + "a" + "b")
        assert str(caught.value) == "non-hex character at offset 1002 of 1005"
        with pytest.raises(ValueError, match=r"^odd-length hex string \(5 characters\)$"):
            from_hex("0xabc")


class TestBase58:
    def test_roundtrip(self):
        payload = bytes(range(32))
        assert b58_decode(b58_encode(payload)) == payload

    def test_leading_zeros_preserved(self):
        payload = b"\x00\x00\x01\x02"
        assert b58_decode(b58_encode(payload)) == payload

    def test_known_alphabet_excludes_ambiguous_characters(self):
        encoded = b58_encode(bytes(range(1, 200, 7)))
        for forbidden in "0OIl":
            assert forbidden not in encoded

    def test_invalid_character_rejected(self):
        with pytest.raises(ValueError):
            b58_decode("0invalid")

    def test_empty_payload(self):
        assert b58_decode(b58_encode(b"")) == b""


class TestBase32:
    def test_roundtrip(self):
        payload = bytes(range(64))
        assert b32_decode(b32_encode(payload)) == payload

    def test_lowercase_output(self):
        encoded = b32_encode(b"hello world")
        assert encoded == encoded.lower()

    def test_decode_is_case_insensitive(self):
        encoded = b32_encode(b"data")
        assert b32_decode(encoded.upper()) == b"data"

    def test_invalid_character_rejected(self):
        with pytest.raises(ValueError):
            b32_decode("abc!def")

    def test_single_byte_roundtrip(self):
        for value in (b"\x00", b"\xff", b"\x7f"):
            assert b32_decode(b32_encode(value)) == value


class TestHexString:
    def test_str_and_reply_pieces_agree(self):
        value = HexString(b"\x00\xab")
        assert str(value) == "0x00ab"
        assert b"".join(value.reply_pieces()) == b'"0x00ab"'

    def test_only_bytes_fill_one(self):
        with pytest.raises(TypeError, match="bytes"):
            HexString("0x00ab")
