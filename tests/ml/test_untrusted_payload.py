"""A model payload comes from an owner, so its header is untrusted input.

Whatever the header says, :func:`deserialize_model` either rebuilds the
model or raises :class:`SerializationError` naming the field at fault --
never another exception type, and never a dtype the format does not define.
"""

import json

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.ml import MLP, deserialize_model, serialize_model
from repro.ml.serialization import _MAGIC, deserialize_parameters

SIZES = [10, 5, 2]
VALUES = 10 * 5 + 5 + 5 * 2 + 2


def crafted(header, body: bytes = b"") -> bytes:
    """A payload with a hand-written JSON header."""
    header_bytes = json.dumps(header).encode("utf-8")
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
], ids=["dtype-object", "dtype-unicode", "dtype-nonsense", "dtype-big-endian-f8",
        "size-string", "size-float", "size-bool", "sizes-zero", "header-list"])
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
