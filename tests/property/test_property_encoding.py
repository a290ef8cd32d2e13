"""Property-based tests for encodings, serialization and hashing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.encoding import b32_decode, b32_encode, b58_decode, b58_encode, from_hex, to_hex
from repro.utils.hashing import keccak256, sha256
from repro.utils.serialization import canonical_dumps, canonical_loads, rlp_encode
from tests.oracles import rlp_decode

binary = st.binary(max_size=256)


class TestEncodingRoundtrips:
    @given(binary)
    def test_hex_roundtrip(self, payload):
        assert from_hex(to_hex(payload)) == payload

    @given(binary)
    def test_base58_roundtrip(self, payload):
        assert b58_decode(b58_encode(payload)) == payload

    @given(binary)
    def test_base32_roundtrip(self, payload):
        assert b32_decode(b32_encode(payload)) == payload

    @given(binary)
    def test_base58_output_alphabet(self, payload):
        encoded = b58_encode(payload)
        assert all(c not in "0OIl" for c in encoded)


class TestHashingProperties:
    @given(binary)
    def test_digest_lengths(self, payload):
        assert len(sha256(payload)) == 32
        assert len(keccak256(payload)) == 32

    @given(binary, binary)
    def test_distinct_inputs_rarely_collide(self, a, b):
        if a != b:
            assert keccak256(a) != keccak256(b)

    @given(binary)
    def test_hashing_is_pure(self, payload):
        assert keccak256(payload) == keccak256(payload)


# Strategy for nested RLP items: bytes at the leaves, lists internally.
rlp_items = st.recursive(
    st.binary(max_size=64),
    lambda children: st.lists(children, max_size=5),
    max_leaves=20,
)


class TestRlpProperties:
    @given(rlp_items)
    @settings(max_examples=60)
    def test_roundtrip(self, item):
        assert rlp_decode(rlp_encode(item)) == item

    @given(st.binary(min_size=1, max_size=128))
    def test_encoding_is_injective_on_bytes(self, payload):
        other = bytes([payload[0] ^ 0xFF]) + payload[1:]
        assert rlp_encode(payload) != rlp_encode(other)


# JSON-like values for canonical serialization.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**12), max_value=10**12)
    | st.text(max_size=20)
    | st.binary(max_size=32),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=15,
)


class TestCanonicalJsonProperties:
    @given(json_values)
    @settings(max_examples=60)
    def test_roundtrip(self, value):
        restored = canonical_loads(canonical_dumps(value))
        assert restored == _normalize(value)

    @given(st.dictionaries(st.text(max_size=8), st.integers(), max_size=6))
    def test_key_order_irrelevant(self, mapping):
        reordered = dict(reversed(list(mapping.items())))
        assert canonical_dumps(mapping) == canonical_dumps(reordered)


def _normalize(value):
    """Tuples become lists through JSON; everything else is preserved."""
    if isinstance(value, (list, tuple)):
        return [_normalize(item) for item in value]
    if isinstance(value, dict):
        return {key: _normalize(val) for key, val in value.items()}
    return value
