"""Tests for repro.chain.keys (key pairs, addresses, Schnorr signatures)."""

import numpy as np
import pytest

from repro.errors import InvalidSignatureError
from repro.chain.keys import (
    KeyPair,
    Signature,
    address_from_public_key,
    recover_address,
    to_checksum_address,
    verify_signature,
)
from repro.utils.hashing import keccak256


class TestKeyPair:
    def test_address_has_standard_format(self):
        keys = KeyPair.from_label("alice")
        assert keys.address.startswith("0x")
        assert len(keys.address) == 42

    def test_from_label_is_deterministic(self):
        assert KeyPair.from_label("alice").address == KeyPair.from_label("alice").address

    def test_different_labels_different_addresses(self):
        assert KeyPair.from_label("alice").address != KeyPair.from_label("bob").address

    def test_generate_uses_rng(self):
        rng = np.random.default_rng(0)
        a = KeyPair.generate(rng)
        b = KeyPair.generate(rng)
        assert a.address != b.address

    def test_empty_private_key_rejected(self):
        with pytest.raises(ValueError):
            KeyPair(b"")

    def test_export_private_seed_roundtrip(self):
        keys = KeyPair.from_label("carol")
        restored = KeyPair(keys.export_private_seed())
        assert restored.address == keys.address


class TestSignatures:
    def test_sign_and_verify(self):
        keys = KeyPair.from_label("signer")
        digest = keccak256(b"message")
        signature = keys.sign(digest)
        assert verify_signature(signature, digest)

    def test_verify_with_address_check(self):
        keys = KeyPair.from_label("signer")
        digest = keccak256(b"message")
        signature = keys.sign(digest)
        assert verify_signature(signature, digest, address=keys.address)

    def test_wrong_message_fails(self):
        keys = KeyPair.from_label("signer")
        signature = keys.sign(keccak256(b"message"))
        assert not verify_signature(signature, keccak256(b"other"))

    def test_wrong_address_fails(self):
        keys = KeyPair.from_label("signer")
        other = KeyPair.from_label("other")
        digest = keccak256(b"message")
        signature = keys.sign(digest)
        assert not verify_signature(signature, digest, address=other.address)

    def test_tampered_signature_fails(self):
        keys = KeyPair.from_label("signer")
        digest = keccak256(b"message")
        signature = keys.sign(digest)
        tampered = Signature(e=signature.e, s=signature.s + 1, public_key=signature.public_key)
        assert not verify_signature(tampered, digest)

    def test_signing_is_deterministic(self):
        keys = KeyPair.from_label("signer")
        digest = keccak256(b"message")
        assert keys.sign(digest) == keys.sign(digest)

    def test_sign_requires_32_byte_hash(self):
        keys = KeyPair.from_label("signer")
        with pytest.raises(ValueError):
            keys.sign(b"too short")

    def test_verify_requires_32_byte_hash(self):
        keys = KeyPair.from_label("signer")
        signature = keys.sign(keccak256(b"m"))
        with pytest.raises(ValueError):
            verify_signature(signature, b"too short")

    def test_signature_dict_roundtrip(self):
        keys = KeyPair.from_label("signer")
        signature = keys.sign(keccak256(b"m"))
        assert Signature.from_dict(signature.to_dict()) == signature

    def test_recover_address(self):
        keys = KeyPair.from_label("signer")
        digest = keccak256(b"m")
        assert recover_address(keys.sign(digest), digest) == keys.address

    def test_recover_invalid_signature_raises(self):
        keys = KeyPair.from_label("signer")
        digest = keccak256(b"m")
        signature = keys.sign(digest)
        bad = Signature(e=signature.e + 1, s=signature.s, public_key=signature.public_key)
        with pytest.raises(InvalidSignatureError):
            recover_address(bad, digest)


class TestChecksumAddress:
    def test_checksum_is_stable(self):
        address = KeyPair.from_label("x").address
        assert to_checksum_address(address.lower()) == address

    def test_checksum_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            to_checksum_address("0x1234")

    def test_address_from_public_key_matches_keypair(self):
        keys = KeyPair.from_label("y")
        assert address_from_public_key(keys.public_key) == keys.address
