"""Tests for repro.chain.keys (key pairs, addresses, Ed25519 signatures)."""

import copy
import gc
import pickle

import pytest

from repro.errors import InvalidSignatureError
from repro.chain import keys
from repro.chain.account import Address
from repro.chain.keys import (
    KeyPair,
    Signature,
    address_from_public_key,
    recover_address,
    signed_by,
    to_checksum_address,
    verify_signature,
)
from repro.utils.hashing import keccak256
from tests.property._workload import ITEM_MUTATIONS, build_item, sender_verdict


#: RFC 8032 section 7.1, TEST 1-3: (secret seed, public key, message,
#: signature), in hex.
RFC8032_VECTORS = [
    ("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"),
    ("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"),
    ("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025", "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
     "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"),
]


def backend_named(name):
    return keys._kernel() if name == "libcrypto" else keys._PurePython("forced for this test")


@pytest.mark.parametrize("name", ["libcrypto", "pure python"])
@pytest.mark.parametrize("seed, public_key, message, signature", RFC8032_VECTORS,
                         ids=["TEST 1", "TEST 2", "TEST 3"])
def test_rfc8032_vectors(name, seed, public_key, message, signature):
    backend = backend_named(name)
    key, message = backend.private_key(bytes.fromhex(seed)), bytes.fromhex(message)
    try:
        assert backend.public_key(key).hex() == public_key
        assert backend.sign(key, message).hex() == signature
    finally:
        backend.free(key)
    assert backend.verify(bytes.fromhex(public_key), bytes.fromhex(signature), message)


class TestKeyPair:
    def test_address_has_standard_format(self):
        keys = KeyPair.from_label("alice")
        assert keys.address.startswith("0x")
        assert len(keys.address) == 42

    def test_from_label_is_deterministic(self):
        assert KeyPair.from_label("alice").address == KeyPair.from_label("alice").address

    def test_different_labels_different_addresses(self):
        assert KeyPair.from_label("alice").address != KeyPair.from_label("bob").address

    def test_empty_private_key_rejected(self):
        with pytest.raises(ValueError):
            KeyPair(b"")


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
        assert recover_address(signature, digest) == keys.address

    def test_wrong_message_fails(self):
        keys = KeyPair.from_label("signer")
        signature = keys.sign(keccak256(b"message"))
        assert not verify_signature(signature, keccak256(b"other"))

    def test_wrong_address_fails(self):
        keys = KeyPair.from_label("signer")
        other = KeyPair.from_label("other")
        digest = keccak256(b"message")
        signature = keys.sign(digest)
        assert recover_address(signature, digest) != other.address

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
        # Each part is its 32 RFC 8032 bytes.
        assert signature.to_dict()["public_key"] == \
            "0x" + keys.public_key.to_bytes(32, "little").hex()

    @pytest.mark.parametrize("part", ["e", "s", "public_key"])
    @pytest.mark.parametrize("length", [0, 31, 33, 64])
    def test_a_part_of_another_length_does_not_parse(self, part, length):
        payload = KeyPair.from_label("signer").sign(keccak256(b"m")).to_dict()
        payload[part] = "0x" + "01" * length
        with pytest.raises(ValueError, match="32 bytes"):
            Signature.from_dict(payload)

    @pytest.mark.parametrize("part", ["e", "s", "public_key"])
    def test_a_part_outside_32_bytes_has_no_wire_form(self, part):
        signature = KeyPair.from_label("signer").sign(keccak256(b"m"))
        for value in (-1, 1 << 256):
            with pytest.raises(OverflowError):
                Signature(**{**signature.__dict__, part: value}).to_dict()

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


def native_key(keypair):
    """The ``EVP_PKEY`` a key pair signs with (its seed on the fallback)."""
    return keypair._sign.args[0]


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda keypair: pickle.loads(pickle.dumps(keypair)),
}


class TestKeyPairKey:
    @pytest.mark.parametrize("how", COPIES)
    def test_a_copy_derives_its_own_key(self, how):
        original = KeyPair.from_label("copied")
        digest = keccak256(b"m")
        clone = COPIES[how](original)
        assert (clone.public_key, clone.address) == (original.public_key, original.address)
        assert native_key(clone) != native_key(original)
        signature = original.sign(digest)
        # Freeing the original's key leaves the copy's working.
        del original
        gc.collect()
        assert clone.sign(digest) == signature

    @pytest.mark.parametrize("how", COPIES)
    def test_a_copy_on_the_fallback_signs_alike(self, how, monkeypatch):
        monkeypatch.setattr(keys, "_backend", keys._PurePython("forced for this test"))
        original = KeyPair.from_label("copied on the fallback")
        digest = keccak256(b"m")
        assert COPIES[how](original).sign(digest) == original.sign(digest)

    def test_the_key_is_freed_once_with_its_key_pair(self, monkeypatch):
        freed = []
        free = keys._Libcrypto.free

        def recording(backend, key):
            freed.append(key)
            free(backend, key)

        monkeypatch.setattr(keys._Libcrypto, "free", recording)
        keypair = KeyPair.from_label("freed")
        key = native_key(keypair)
        assert freed == []
        del keypair
        gc.collect()
        assert freed == [key]


@pytest.mark.parametrize("mutation", ITEM_MUTATIONS)
def test_signed_by_gives_the_sender_check_verdict(mutation):
    # The checksum-free comparison against the checksummed one.
    for sender in range(3):
        signature, message, address = build_item((sender, 5 + sender, mutation))
        assert signed_by(signature, message, Address(address).lower) == \
            sender_verdict(signature, message, address)


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
