"""Property pin for the default scalar ``verify_signature``.

The default path chooses, per public key and by sighting count alone,
between the builtin ``pow`` and a per-sender Lim-Lee table for
``(y^-1)^e``.  Whichever it chooses, the verdict must equal a reference
that knows nothing of tables, caches or range shortcuts: two builtin
``pow`` calls and the challenge hash.  Hypothesis drives the adversarial
items of ``_workload`` (honest, forged, tampered ``e`` / ``s`` / key,
out-of-range and negative values, keys outside ``(1, P)``) through keys
that are cold, already promoted, and promoted-then-evicted; running several
items per example walks each key through count -> build -> reuse.
"""

from __future__ import annotations

from typing import Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chain.keys import (
    GENERATOR,
    GROUP_ORDER,
    GROUP_PRIME,
    Signature,
    _GENERATOR_COMB,
    _LimLeeComb,
    address_from_public_key,
    key_comb_cache,
    to_checksum_address,
    verify_signature,
)
from repro.utils.hashing import keccak256

from ._workload import ITEM_SPECS, SENDERS, build_item


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


def put_keys_in_state(state: str, public_keys) -> None:
    """Leave each key cold, promoted, or promoted and then evicted."""
    cache = key_comb_cache()
    for key in public_keys:
        if state == "cold":
            cache.invalidate(key)
        else:
            while cache.comb_for(key) is None:
                pass
    if state == "evicted":
        # Real evictions, not invalidations: flood the LRU with sighting
        # counts under keys no signature can carry into it.
        for filler in range(cache.capacity):
            cache.put(-1 - filler, 1)
        assert not any(key in cache for key in public_keys)


class TestScalarVerdictsEqualBuiltinPowReference:
    @given(specs=ITEM_SPECS,
           state=st.sampled_from(["cold", "promoted", "evicted"]))
    @settings(max_examples=40, deadline=None)
    def test_verdicts_on_cold_promoted_and_evicted_keys(self, specs, state):
        items = [build_item(spec) for spec in specs]
        put_keys_in_state(state, {
            signature.public_key for signature, _, _ in items
            if 1 < signature.public_key < GROUP_PRIME})
        for signature, message, address in items:
            assert verify_signature(signature, message, address) == \
                reference_verify(signature, message, address)

    def test_a_promoted_key_still_verifies_and_still_rejects(self):
        # The property above compares verdicts; this pins that both verdicts
        # really occur on the table path.
        cache = key_comb_cache()
        valid = build_item((0, 0, "valid"))
        forged = build_item((0, 0, "flip_s"))
        put_keys_in_state("promoted", [valid[0].public_key])
        hits = cache.hits
        assert verify_signature(*valid) is True
        assert verify_signature(*forged) is False
        assert cache.hits == hits + 2
        assert isinstance(cache.peek(valid[0].public_key), _LimLeeComb)


#: One base inside the prime-order subgroup (an honest key's inverse) and
#: one outside it -- public keys are attacker-supplied, so the table must be
#: exact without assuming anything about the base's order.
BASES = [pow(SENDERS[0].public_key, -1, GROUP_PRIME), GROUP_PRIME - 2]
TABLES = [_LimLeeComb(base, GROUP_PRIME) for base in BASES]


class TestTableExactness:
    @given(which=st.integers(0, len(BASES) - 1),
           exponent=st.one_of(
               st.integers(0, (1 << 256) - 1),
               st.integers(0, 255).map(lambda bit: 1 << bit),
               st.integers(-(1 << 64), 1 << 300)))
    @example(which=0, exponent=0)
    @example(which=0, exponent=1)
    @example(which=1, exponent=(1 << 256) - 1)
    @example(which=1, exponent=1 << 256)
    @example(which=0, exponent=(1 << 256) + 1)
    @example(which=0, exponent=-1)
    @example(which=0, exponent=GROUP_ORDER)
    @settings(max_examples=60, deadline=None)
    def test_power_is_bit_identical_to_builtin_pow(self, which, exponent):
        assert TABLES[which].pow(exponent) == \
            pow(BASES[which], exponent, GROUP_PRIME)

    @given(exponent=st.sampled_from([1, 8, 256, 510, 512, 513, 2047, 4100])
           .flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1))
           .flatmap(lambda value: st.sampled_from([value, -value])))
    @settings(max_examples=80, deadline=None)
    def test_generator_power_is_bit_identical_to_builtin_pow(self, exponent):
        # Either side of every edge of the 8-bit generator comb: one byte,
        # the honest sizes, the 2^512 table range, the group order, beyond.
        assert _GENERATOR_COMB.pow(exponent) == \
            pow(GENERATOR, exponent, GROUP_PRIME)
        assert len(_GENERATOR_COMB._rows) <= 64
