"""Property pin for the default scalar ``verify_signature``.

The default path computes ``g^s * (y^-1)^e`` in libcrypto, after reducing
``s`` modulo the group order: ``g^s`` as a product of entries of a fixed-base
table over 516 bits (and a power of ``g^(2^516)`` for any bits above), and
``(y^-1)^e`` split at bit 128, with the inverse and its 2^128-th power
memoized per key; without a binding it computes the same through the builtin
``pow``.  Either
way the verdict must equal a reference that knows nothing of kernels,
caches or reductions: two builtin ``pow`` calls and the challenge hash.
Hypothesis drives the adversarial items of ``_workload`` (honest, forged,
tampered ``e`` / ``s`` / key, out-of-range and negative values, keys outside
``(1, P)``) through both.
"""

from __future__ import annotations

from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chain import keys
from repro.chain.keys import (
    GENERATOR,
    GROUP_ORDER,
    GROUP_PRIME,
    Signature,
    address_from_public_key,
    to_checksum_address,
)
from repro.utils.hashing import keccak256

from ._workload import ITEM_SPECS, SENDERS, build_item, sender_verdict


def reference_verify(signature: Signature, message_hash: bytes,
                     address: Optional[str] = None) -> bool:
    """``g^s == r * y^e`` with builtin ``pow`` only -- the seed's check."""
    y = signature.public_key
    if not (1 < y < GROUP_PRIME):
        return False
    r = (pow(GENERATOR, signature.s, GROUP_PRIME)
         * pow(pow(y, -1, GROUP_PRIME), signature.e, GROUP_PRIME)) % GROUP_PRIME
    commitment = r.to_bytes(max(1, (r.bit_length() + 7) // 8), "big")
    challenge = int.from_bytes(
        keccak256(commitment + message_hash), "big") % GROUP_ORDER
    if challenge != signature.e:
        return False
    return address is None or \
        address_from_public_key(y) == to_checksum_address(address)


class TestScalarVerdictsEqualBuiltinPowReference:
    @given(specs=ITEM_SPECS)
    @settings(max_examples=40, deadline=None)
    @pytest.mark.parametrize("backend", ["libcrypto", "builtin pow"])
    def test_verdicts_equal_the_reference(self, specs, backend):
        items = [build_item(spec) for spec in specs]
        with pytest.MonkeyPatch.context() as patch:
            if backend == "builtin pow":
                patch.setattr(keys, "_backend", keys._BuiltinPow("forced for this test"))
            for signature, message, address in items:
                assert sender_verdict(signature, message, address) == \
                    reference_verify(signature, message, address)

    def test_both_verdicts_occur(self):
        # The property above compares verdicts; this pins that both really
        # occur through the kernel.
        assert sender_verdict(*build_item((0, 0, "valid"))) is True
        assert sender_verdict(*build_item((0, 0, "flip_s"))) is False


#: One base inside the prime-order subgroup (an honest key's inverse) and
#: one outside it -- public keys are attacker-supplied, so the kernel must be
#: exact without assuming anything about the base's order.
BASES = [pow(SENDERS[0].public_key, -1, GROUP_PRIME), GROUP_PRIME - 2]


class TestKernelExactness:
    @given(which=st.integers(0, len(BASES) - 1),
           s=st.one_of(st.integers(0, (1 << 512) - 1),
                       st.integers(-(1 << 64), 1 << 4200)),
           e=st.one_of(
               st.integers(0, (1 << 256) - 1),
               st.integers(0, 255).map(lambda bit: 1 << bit),
               st.integers(0, 1 << 300)))
    @example(which=0, s=0, e=0)
    @example(which=0, s=1, e=1)
    @example(which=1, s=-1, e=(1 << 256) - 1)
    @example(which=1, s=GROUP_ORDER, e=1 << 256)
    @example(which=0, s=GROUP_ORDER + 1, e=(1 << 256) + 1)
    @example(which=0, s=GROUP_ORDER - 1, e=GROUP_ORDER)
    # Either side of where ``s mod q`` and ``e`` are split.
    @example(which=0, s=(1 << 256) - 1, e=(1 << 128) - 1)
    @example(which=1, s=(1 << 256) + 1, e=(1 << 128) + 1)
    @example(which=0, s=(1 << 512) - 1, e=(1 << 128) + 1)
    @example(which=1, s=(1 << 512) + 1, e=(1 << 128) - 1)
    # The edges of g's fixed-base table: an honest s is below 2^513, the
    # table covers 516 bits, and the bits above take a power of g^(2^516).
    @example(which=0, s=(1 << 513) - 1, e=(1 << 256) - 1)
    @example(which=1, s=(1 << 513) + 1, e=(1 << 128))
    @example(which=0, s=(1 << 516) - 1, e=(1 << 128) - 1)
    @example(which=1, s=1 << 516, e=0)
    @example(which=0, s=(1 << 516) + 1, e=1)
    @example(which=1, s=GROUP_ORDER - 1, e=(1 << 256) - 1)
    @example(which=0, s=-(1 << 516), e=(1 << 128) + 1)
    @settings(max_examples=60, deadline=None)
    @pytest.mark.parametrize("backend", ["libcrypto", "builtin pow"])
    def test_commitment_is_bit_identical_to_builtin_pow(self, backend, which, s, e):
        base = BASES[which]
        kernel = keys._kernel() if backend == "libcrypto" else \
            keys._BuiltinPow("forced for this test")
        assert kernel.commitment(s, e, base, pow(base, 1 << 128, GROUP_PRIME)) == \
            pow(GENERATOR, s, GROUP_PRIME) * pow(base, e, GROUP_PRIME) % GROUP_PRIME

    @given(exponent=st.sampled_from([1, 8, 256, 510, 512, 513, 2047, 4100])
           .flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1))
           .flatmap(lambda value: st.sampled_from([value, -value])))
    @settings(max_examples=80, deadline=None)
    def test_generator_power_is_bit_identical_to_builtin_pow(self, exponent):
        # Either side of one byte, the honest sizes, 2^512, the group
        # order, and beyond, positive and negative.
        assert keys._kernel().generator_power(exponent) == \
            pow(GENERATOR, exponent, GROUP_PRIME)
