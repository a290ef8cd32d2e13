"""A model payload comes from an owner, so its header is untrusted input.

Whatever the header says, :func:`deserialize_model` either rebuilds the
model or raises :class:`SerializationError` naming the field at fault --
never another exception type, and never a dtype the format does not define.
A derandomised property feeds :func:`deserialize_parameters` arbitrary bytes
and mangled valid payloads: parameters or a :class:`SerializationError`.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.ml import MLP, serialize_model
from repro.ml.serialization import _MAGIC, deserialize_parameters
from tests.oracles import deserialize_model

SIZES = [10, 5, 2]
VALUES = 10 * 5 + 5 + 5 * 2 + 2


def crafted(header, body: bytes = b"") -> bytes:
    """A payload with a hand-written JSON header."""
    return raw(json.dumps(header).encode("utf-8"), body)


def raw(header_bytes: bytes, body: bytes = b"") -> bytes:
    """A payload whose header is ``header_bytes`` verbatim."""
    return _MAGIC + len(header_bytes).to_bytes(4, "big") + header_bytes + body


def header(**fields):
    return {"layer_sizes": SIZES, "dtype": "<f4", "format": "dense-layers-v1", **fields}


F4_BODY = np.zeros(VALUES, dtype="<f4").tobytes()
#: A body as long as an 8-byte dtype would need, so that only the dtype is wrong.
WIDE_BODY = bytes(VALUES * 8)


@pytest.mark.parametrize("payload, field", [
    (crafted(header(dtype="O"), WIDE_BODY), "dtype"),
    (crafted(header(dtype="<U2"), WIDE_BODY), "dtype"),
    (crafted(header(dtype="nonsense"), F4_BODY), "dtype"),
    (crafted(header(dtype=">f8"), WIDE_BODY), "dtype"),
    (crafted(header(layer_sizes=["10", 5, 2]), F4_BODY), "layer_sizes"),
    (crafted(header(layer_sizes=[10.0, 5, 2]), F4_BODY), "layer_sizes"),
    (crafted(header(layer_sizes=[True, 5, 2]), np.zeros(5 + 5 + 5 * 2 + 2, "<f4").tobytes()),
     "layer_sizes"),
    (crafted(header(layer_sizes=[0, 0])), "layer_sizes"),
    (crafted([SIZES, "<f4"], F4_BODY), "JSON object"),
    # json parses one Python frame per '[': this exhausts the stack.
    (raw(b"[" * 100_000, F4_BODY), "nested too deeply"),
    # An integer literal past the int-digit limit: json raises a bare ValueError.
    (raw(b'{"dtype":"<f4","layer_sizes":[' + b"1" * 5000 + b",2]}", F4_BODY),
     "corrupt model header"),
], ids=["dtype-object", "dtype-unicode", "dtype-nonsense", "dtype-big-endian-f8",
        "size-string", "size-float", "size-bool", "sizes-zero", "header-list",
        "header-nested-too-deeply", "header-integer-too-long"])
def test_a_bad_header_is_a_serialization_error_naming_the_field(payload, field):
    with pytest.raises(SerializationError, match=field):
        deserialize_model(payload)
    with pytest.raises(SerializationError, match=field):
        deserialize_parameters(payload)


def test_the_written_header_still_reads_back():
    model = MLP(SIZES, seed=0)
    restored = deserialize_model(serialize_model(model))
    assert restored.layer_sizes == tuple(SIZES)
    for before, after in zip(model.layers, restored.layers):
        assert np.array_equal(after.weights, before.weights.astype("<f4").astype(np.float64))


VALID = serialize_model(MLP(SIZES, seed=0))


def mangled(edits, length: int) -> bytes:
    """``VALID`` with each ``(offset, byte)`` written over it, cut or
    zero-padded to ``length``."""
    payload = bytearray(VALID)
    for offset, value in edits:
        payload[offset] = value
    return bytes(payload[:length]).ljust(length, b"\0")


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(payload=st.one_of(
    st.binary(max_size=256),
    st.builds(raw, st.binary(max_size=256), st.binary(max_size=64)),
    st.builds(mangled,
              st.lists(st.tuples(st.integers(0, len(VALID) - 1), st.integers(0, 255)),
                       max_size=6),
              st.integers(0, len(VALID) + 8)),
))
@example(payload=raw(b"[" * 100_000))
@example(payload=raw(b"{\"a\":" * 50_000))
@example(payload=raw(b"1" * 5000))
@example(payload=VALID[:-1])
def test_any_payload_gives_parameters_or_a_serialization_error(payload):
    try:
        parameters = deserialize_parameters(payload)
    except SerializationError:
        return
    for layer in parameters:
        assert layer["weights"].dtype == np.float32
        assert layer["biases"].shape == layer["weights"].shape[1:]
