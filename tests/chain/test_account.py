"""Tests for repro.chain.account."""

import pytest

from repro.errors import InvalidAddressError
from repro.chain.account import Account, Address, ZERO_ADDRESS
from repro.chain.keys import KeyPair


class TestAddress:
    def test_accepts_checksummed(self):
        address = Address(KeyPair.from_label("a").address)
        assert str(address).startswith("0x")

    def test_case_insensitive_equality(self):
        raw = KeyPair.from_label("a").address
        assert Address(raw.lower()) == Address(raw)

    def test_equality_with_string(self):
        raw = KeyPair.from_label("a").address
        assert Address(raw) == raw.lower()

    def test_hashable_and_usable_as_dict_key(self):
        raw = KeyPair.from_label("a").address
        mapping = {Address(raw): 1}
        assert mapping[Address(raw.lower())] == 1

    def test_copy_constructor(self):
        original = Address(KeyPair.from_label("a").address)
        assert Address(original) == original

    def test_rejects_bad_length(self):
        with pytest.raises(InvalidAddressError):
            Address("0x1234")

    def test_rejects_non_hex(self):
        with pytest.raises(InvalidAddressError):
            Address("0x" + "zz" * 20)

    def test_rejects_non_string(self):
        with pytest.raises(InvalidAddressError):
            Address(12345)

    def test_zero_address_constant(self):
        assert str(ZERO_ADDRESS) == "0x" + "00" * 20

    def test_lower_property(self):
        raw = KeyPair.from_label("a").address
        assert Address(raw).lower == raw.lower()


class TestAccount:
    def test_defaults(self):
        account = Account(address=ZERO_ADDRESS)
        assert account.balance == 0
        assert account.nonce == 0
        assert not account.is_contract

    def test_to_dict_summarizes(self):
        account = Account(address=ZERO_ADDRESS, balance=7, nonce=3)
        summary = account.to_dict()
        assert summary["balance"] == 7
        assert summary["nonce"] == 3
        assert summary["is_contract"] is False
