"""Model (de)serialization into the byte payloads stored on IPFS.

Models travel as a small JSON header (architecture, dtype, shapes) followed
by the raw little-endian float32 parameter buffer.  For the paper's
(784, 100, 10) MLP the payload is 79,510 float32 values ~= 318 KB -- matching
the "models in our experiments occupy 317Kb" figure in the paper's overhead
analysis.
"""

from __future__ import annotations

import json
from typing import List, Sequence

import numpy as np

from repro.errors import SerializationError
from repro.ml.mlp import MLP

_MAGIC = b"OFLW3MODEL1\n"
_DTYPE = "<f4"


def serialize_model(model: MLP) -> bytes:
    """Encode a model's architecture and parameters into bytes."""
    header = {
        "layer_sizes": list(model.layer_sizes),
        "dtype": _DTYPE,
        "format": "dense-layers-v1",
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    buffers: List[bytes] = []
    for params in model.get_parameters():
        buffers.append(np.ascontiguousarray(params["weights"], dtype=_DTYPE).tobytes())
        buffers.append(np.ascontiguousarray(params["biases"], dtype=_DTYPE).tobytes())
    return _MAGIC + len(header_bytes).to_bytes(4, "big") + header_bytes + b"".join(buffers)


def deserialize_model(payload: bytes) -> MLP:
    """Rebuild a model from :func:`serialize_model` output.

    Raises
    ------
    SerializationError
        If the payload is truncated, has the wrong magic or the parameter
        buffer does not match the declared architecture.
    """
    payload = bytes(payload)
    if not payload.startswith(_MAGIC):
        raise SerializationError("payload does not start with the model magic header")
    offset = len(_MAGIC)
    if len(payload) < offset + 4:
        raise SerializationError("payload truncated before header length")
    header_len = int.from_bytes(payload[offset:offset + 4], "big")
    offset += 4
    if len(payload) < offset + header_len:
        raise SerializationError("payload truncated inside the JSON header")
    try:
        header = json.loads(payload[offset:offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"corrupt model header: {exc}") from exc
    offset += header_len
    layer_sizes = header.get("layer_sizes")
    if not isinstance(layer_sizes, list) or len(layer_sizes) < 2:
        raise SerializationError(f"invalid layer sizes in header: {layer_sizes!r}")

    dtype = np.dtype(header.get("dtype", _DTYPE))
    body = payload[offset:]
    expected_values = sum(
        fan_in * fan_out + fan_out for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:])
    )
    if len(body) != expected_values * dtype.itemsize:
        raise SerializationError(
            f"parameter buffer has {len(body)} bytes, expected {expected_values * dtype.itemsize}"
        )
    values = np.frombuffer(body, dtype=dtype)  # MLP.from_parameters makes the float64 copy

    parameters = []
    cursor = 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights = values[cursor:cursor + fan_in * fan_out].reshape(fan_in, fan_out)
        cursor += fan_in * fan_out
        biases = values[cursor:cursor + fan_out]
        cursor += fan_out
        parameters.append({"weights": weights, "biases": biases})
    return MLP.from_parameters(parameters)


def model_payload_size(layer_sizes: Sequence[int]) -> int:
    """Predicted serialized size in bytes for an architecture (header excluded)."""
    values = sum(
        fan_in * fan_out + fan_out for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:])
    )
    return values * np.dtype(_DTYPE).itemsize
