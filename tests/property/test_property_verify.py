"""Differential pin for ``verify_signature``: libcrypto against RFC 8032.

The default backend is OpenSSL's Ed25519 through ``EVP``; the fallback is
the pure-Python RFC 8032 code in ``repro.chain.keys``, which knows nothing
of libcrypto and is the oracle here.  For every signature -- honest ones
over generated keys and messages, and each way ``_workload`` and this module
sabotage them -- both must give the same verdict through
``verify_signature``, and agree with what the item is: only an untouched
honest signature verifies.  The hostile keys are enumerated rather than
drawn: every small-order point's encoding under either sign bit, the
non-canonical ``y`` from ``P`` up, and values wider than 32 bytes.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chain import keys
from repro.chain.keys import KeyPair, Signature, verify_signature

from ._workload import ITEM_MUTATIONS, ITEM_SPECS, build_item, sender_verdict

P, L = keys._P, keys._L
ORACLE = keys._PurePython("the oracle of this test")

#: Every small-order point's y (libsodium's blocklist, non-canonical p and
#: p + 1 included) under both sign bits.
SMALL_ORDER_KEYS = [y | sign << 255 for y in (0, 1, P - 1, keys._ORDER_8_Y,
                                              P - keys._ORDER_8_Y, P, P + 1)
                    for sign in (0, 1)]
#: Every non-canonical y (P .. 2^255 - 1), under both sign bits.
NON_CANONICAL_KEYS = [y | sign << 255 for y in range(P, 1 << 255) for sign in (0, 1)]
#: Integers no 32-byte field holds.
WRONG_LENGTH = [-1, 1 << 256, (1 << 256) + 1, 1 << 264]


def both_verdicts(signature: Signature, message: bytes):
    """``verify_signature`` on the bound libcrypto, then on the oracle."""
    assert keys.ed25519_backend().startswith("libcrypto (OpenSSL")
    default = verify_signature(signature, message)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(keys, "_backend", ORACLE)
        return default, verify_signature(signature, message)


def mutated(signature: Signature, mutation: str, bit: int, other: Signature) -> Signature:
    e, s, key = signature.e, signature.s, signature.public_key
    if mutation == "flip_e":
        e ^= 1 << bit
    elif mutation == "flip_s":
        s ^= 1 << bit
    elif mutation == "flip_key":
        key ^= 1 << bit
    elif mutation == "s_plus_l":
        s += L
    elif mutation == "foreign_key":
        key = other.public_key
    elif mutation == "foreign_signature":
        e, s = other.e, other.s
    return Signature(e=e, s=s, public_key=key)


MUTATIONS = ["valid", "flip_e", "flip_s", "flip_key", "s_plus_l", "foreign_key",
             "foreign_signature"]


class TestLibcryptoAgreesWithRfc8032:
    @given(seeds=st.lists(st.binary(min_size=1, max_size=40), min_size=2, max_size=2,
                          unique=True),
           message=st.binary(min_size=32, max_size=32),
           mutation=st.sampled_from(MUTATIONS), bit=st.integers(0, 255))
    @example(seeds=[b"a", b"b"], message=bytes(32), mutation="s_plus_l", bit=0)
    @example(seeds=[b"a", b"b"], message=bytes(32), mutation="flip_key", bit=255)
    @settings(max_examples=60, deadline=None)
    def test_generated_keys_and_messages(self, seeds, message, mutation, bit):
        signer, other = (KeyPair(seed) for seed in seeds)
        signature = mutated(signer.sign(message), mutation, bit, other.sign(message))
        default, oracle = both_verdicts(signature, message)
        assert default == oracle
        # Every mutation changes the signature, and a changed one never
        # verifies (a flipped key bit can name another valid key, whose
        # signature this is not).
        assert default == (mutation == "valid")

    @given(specs=ITEM_SPECS)
    @settings(max_examples=25, deadline=None)
    def test_the_workload_items(self, specs):
        for signature, message, address in map(build_item, specs):
            default = sender_verdict(signature, message, address)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(keys, "_backend", ORACLE)
                assert sender_verdict(signature, message, address) == default

    @pytest.mark.parametrize("backend", ["libcrypto", "pure python"])
    @pytest.mark.parametrize("key", SMALL_ORDER_KEYS + NON_CANONICAL_KEYS + WRONG_LENGTH,
                             ids=hex)
    def test_hostile_keys(self, key, backend, monkeypatch):
        # R = the identity and S = 0 satisfy the group equation for any
        # message under the identity key, on either raw backend.
        if backend == "pure python":
            monkeypatch.setattr(keys, "_backend", ORACLE)
        message = bytes(range(32))
        for signature in (Signature(e=1, s=0, public_key=key),
                          Signature(e=KeyPair(b"k").sign(message).e, s=1, public_key=key)):
            assert not verify_signature(signature, message)

    @pytest.mark.parametrize("index", range(96), ids=lambda index: (
        f"R[{index}]" if index < 32 else f"S[{index - 32}]" if index < 64
        else f"key[{index - 64}]"))
    def test_every_byte_is_bound(self, index):
        # One bit flipped in any byte of R, S or the key: both refuse.
        keypair, message = KeyPair(b"every byte"), bytes(range(32, 64))
        signature = keypair.sign(message)
        part, offset = ("e", "s", "public_key")[index // 32], index % 32
        flipped = getattr(signature, part) ^ 1 << (8 * offset + index % 8)
        assert both_verdicts(Signature(**{**signature.__dict__, part: flipped}),
                             message) == (False, False)

    @pytest.mark.parametrize("mutation", ITEM_MUTATIONS)
    def test_each_workload_mutation(self, mutation):
        for sender in range(2):
            signature, message, address = build_item((sender, 3 + sender, mutation))
            default = sender_verdict(signature, message, address)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(keys, "_backend", ORACLE)
                assert sender_verdict(signature, message, address) == default
            assert default == (mutation == "valid")

    @pytest.mark.parametrize("e, s", [(e, 1) for e in WRONG_LENGTH] +
                             [(1, s) for s in WRONG_LENGTH + [L, L + 1]])
    def test_out_of_range_signatures(self, e, s):
        keypair, message = KeyPair(b"range"), bytes(32)
        assert both_verdicts(Signature(e=e, s=s, public_key=keypair.public_key),
                             message) == (False, False)

    def test_both_verdicts_occur(self):
        # The properties above compare verdicts; this pins that both really
        # occur through both backends.
        assert both_verdicts(*build_item((0, 0, "valid"))[:2]) == (True, True)
        assert both_verdicts(*build_item((0, 0, "flip_s"))[:2]) == (False, False)


class TestOracleAlone:
    def test_the_raw_backends_accept_the_identity_key(self):
        # Why verify_signature refuses small-order keys before either
        # backend runs: both raw equations hold for R = identity, S = 0.
        identity = keys._encoded(1)
        for backend in (keys._kernel(), ORACLE):
            assert backend.verify(identity, identity + bytes(32), b"any message")

    def test_an_order_8_point_has_order_8(self):
        point = keys._decompress(keys._ORDER_8_Y)
        identity = keys._compress((0, 1, 1, 0))
        assert keys._compress(keys._multiply(8, point)) == identity
        assert keys._compress(keys._multiply(4, point)) != identity

    def test_the_base_point_has_order_l(self):
        identity = keys._compress((0, 1, 1, 0))
        assert keys._compress(keys._multiply(L, keys._BASE)) == identity
        assert keys._compress(keys._BASE).hex() == "58" + "66" * 31
