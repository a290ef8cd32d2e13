"""Tests for repro.chain.transaction."""

import pytest

from repro.errors import InvalidSignatureError, InvalidTransactionError
from repro.chain.account import Address
from repro.chain.keys import KeyPair
from repro.chain.transaction import (
    Transaction,
    decode_payload,
    encode_call,
    encode_create,
)

ALICE = KeyPair.from_label("alice")
BOB = KeyPair.from_label("bob")


def make_tx(**overrides) -> Transaction:
    """A valid unsigned transfer from Alice to Bob."""
    defaults = dict(
        sender=Address(ALICE.address),
        to=Address(BOB.address),
        value=1000,
        nonce=0,
        gas_limit=21_000,
        gas_price=10**9,
    )
    defaults.update(overrides)
    return Transaction(**defaults)


class TestConstruction:
    def test_valid_transfer(self):
        tx = make_tx()
        assert not tx.is_create
        assert tx.value == 1000

    def test_create_transaction_has_no_destination(self):
        tx = make_tx(to=None, data=encode_create("CidStorage", []), gas_limit=1_000_000)
        assert tx.is_create

    def test_negative_value_rejected(self):
        with pytest.raises(InvalidTransactionError):
            make_tx(value=-1)

    def test_zero_gas_limit_rejected(self):
        with pytest.raises(InvalidTransactionError):
            make_tx(gas_limit=0)

    def test_negative_nonce_rejected(self):
        with pytest.raises(InvalidTransactionError):
            make_tx(nonce=-1)

    def test_non_bytes_data_rejected(self):
        with pytest.raises(InvalidTransactionError):
            make_tx(data="not-bytes")


class TestHashingAndSigning:
    def test_hash_is_32_bytes(self):
        assert len(make_tx().hash) == 32

    def test_hash_changes_with_nonce(self):
        assert make_tx(nonce=0).hash != make_tx(nonce=1).hash

    def test_sign_and_verify(self):
        tx = make_tx().sign(ALICE)
        assert tx.verify_signature()

    def test_wrong_keypair_cannot_sign(self):
        with pytest.raises(InvalidSignatureError):
            make_tx().sign(BOB)

    def test_unsigned_does_not_verify(self):
        assert not make_tx().verify_signature()

    def test_signature_from_other_tx_does_not_verify(self):
        tx1 = make_tx(nonce=0).sign(ALICE)
        tx2 = make_tx(nonce=1)
        tx2.signature = tx1.signature
        assert not tx2.verify_signature()


class TestGasAccounting:
    def test_intrinsic_gas_plain_transfer(self):
        assert make_tx().intrinsic_gas() == 21_000

    def test_intrinsic_gas_includes_calldata(self):
        data = encode_call("uploadCid", ["Qm" + "a" * 44])
        tx = make_tx(data=data, gas_limit=100_000)
        assert tx.intrinsic_gas() > 21_000

    def test_max_fee(self):
        assert make_tx(gas_limit=50_000, gas_price=2).max_fee() == 100_000


class TestPayloadEncoding:
    def test_call_roundtrip(self):
        data = encode_call("uploadCid", ["QmABC"])
        assert decode_payload(data) == {"method": "uploadCid", "args": ["QmABC"]}

    def test_create_roundtrip(self):
        data = encode_create("FLTask", [{"task": "mnist"}])
        assert decode_payload(data) == {"create": "FLTask", "args": [{"task": "mnist"}]}

    def test_empty_payload(self):
        assert decode_payload(b"") == {}

    def test_garbage_payload_rejected(self):
        with pytest.raises(InvalidTransactionError):
            decode_payload(b"\xff\xfe not json")

    def test_to_dict_contains_hash_and_fields(self):
        info = make_tx().sign(ALICE).to_dict()
        assert info["hash"].startswith("0x")
        assert info["sender"] == ALICE.address
        assert info["signature"] is not None


class TestRawWireForm:
    def test_raw_form_grows_with_data(self):
        small = make_tx().sign(ALICE)
        big = make_tx(data=encode_call("method", ["x" * 500]), gas_limit=100_000).sign(ALICE)
        assert len(big.serialize_raw()) > len(small.serialize_raw())

    def test_signed_transaction_round_trips(self):
        tx = make_tx(data=encode_call("uploadCid", ["QmABC"]), gas_limit=60_000).sign(ALICE)
        decoded = Transaction.deserialize_raw(tx.serialize_raw())
        assert decoded.hash == tx.hash
        assert decoded.verify_signature()
        assert decoded.decoded_payload() == {"method": "uploadCid", "args": ["QmABC"]}

    def test_plain_transfer_has_an_empty_payload(self):
        assert make_tx().decoded_payload() == {}

    def test_undecodable_hex_rejected(self):
        with pytest.raises(InvalidTransactionError, match="undecodable"):
            Transaction.deserialize_raw("0xzz")

    def test_non_object_payload_rejected(self):
        with pytest.raises(InvalidTransactionError, match="object"):
            Transaction.deserialize_raw("0x" + b"[1, 2]".hex())

    def test_signing_payload_is_cached_until_an_identity_field_changes(self):
        tx = make_tx()
        payload = tx.signing_payload()
        assert tx.signing_payload() is payload
        tx.nonce = 1
        assert tx.signing_payload() != payload
        assert tx.signing_payload() == make_tx(nonce=1).signing_payload()
