"""Model (de)serialization into the byte payloads stored on IPFS.

Models travel as a small JSON header (architecture, dtype, shapes) followed
by the raw little-endian float32 parameter buffer.  For the paper's
(784, 100, 10) MLP the payload is 79,510 float32 values ~= 318 KB -- matching
the "models in our experiments occupy 317Kb" figure in the paper's overhead
analysis.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.errors import SerializationError, ShapeError
from repro.ml.mlp import MLP

_MAGIC = b"OFLW3MODEL1\n"
_DTYPE = "<f4"


def serialize_parameters(parameters: Sequence[Dict[str, np.ndarray]]) -> bytes:
    """Encode a parameter list (what :meth:`MLP.get_parameters` returns) into
    the payload :func:`serialize_model` writes for the model holding it."""
    if not parameters:
        raise ShapeError("cannot serialize an empty parameter list")
    layer_sizes = [parameters[0]["weights"].shape[0]]
    for params in parameters:
        weights, biases = params["weights"], params["biases"]
        if (weights.ndim != 2 or 0 in weights.shape or weights.shape[0] != layer_sizes[-1]
                or biases.shape != weights.shape[1:]):
            raise ShapeError(
                f"layer {len(layer_sizes) - 1} does not follow a {layer_sizes[-1]}-wide layer: "
                f"weights {weights.shape} with biases {biases.shape}"
            )
        layer_sizes.append(weights.shape[1])
    header = {
        "layer_sizes": layer_sizes,
        "dtype": _DTYPE,
        "format": "dense-layers-v1",
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    buffers: List[bytes] = []
    for params in parameters:
        buffers.append(np.ascontiguousarray(params["weights"], dtype=_DTYPE).tobytes())
        buffers.append(np.ascontiguousarray(params["biases"], dtype=_DTYPE).tobytes())
    return _MAGIC + len(header_bytes).to_bytes(4, "big") + header_bytes + b"".join(buffers)


def serialize_model(model: MLP) -> bytes:
    """Encode a model's architecture and parameters into bytes."""
    return serialize_parameters([
        {"weights": layer.weights, "biases": layer.biases} for layer in model.layers
    ])


def _layer_sizes(header: Any) -> List[int]:
    """The header's architecture, or a :class:`SerializationError` naming the
    field at fault: a payload comes from an owner, so its header is untrusted."""
    if not isinstance(header, dict):
        raise SerializationError(
            f"model header must be a JSON object, got {type(header).__name__}")
    if header.get("dtype") != _DTYPE:
        raise SerializationError(f"model header dtype must be {_DTYPE!r}, got {header.get('dtype')!r}")
    layer_sizes = header.get("layer_sizes")
    if (not isinstance(layer_sizes, list) or len(layer_sizes) < 2
            or not all(type(size) is int and size > 0 for size in layer_sizes)):
        raise SerializationError(
            f"model header layer_sizes must be a list of at least two positive "
            f"integers, got {layer_sizes!r}")
    return layer_sizes


def deserialize_parameters(payload: bytes) -> List[Dict[str, np.ndarray]]:
    """The parameter list encoded by :func:`serialize_parameters`, as
    read-only float32 views of the payload: nothing is copied or widened.

    Raises
    ------
    SerializationError
        If the payload is truncated or has the wrong magic; if its header is
        not an object with dtype ``<f4`` and a list of at least two positive
        integer ``layer_sizes``; or if the parameter buffer does not match
        that architecture.
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
    except (UnicodeDecodeError, ValueError) as exc:
        # ValueError covers JSONDecodeError and an integer literal past the
        # interpreter's int-digit limit, which json reports as a bare ValueError.
        raise SerializationError(f"corrupt model header: {exc}") from exc
    except RecursionError as exc:
        # json nests one Python frame per '[' or '{': a hostile header
        # exhausts the stack before it fails to parse.
        raise SerializationError("corrupt model header: nested too deeply") from exc
    offset += header_len
    layer_sizes = _layer_sizes(header)

    expected_bytes = model_payload_size(layer_sizes)
    if len(payload) - offset != expected_bytes:
        raise SerializationError(
            f"parameter buffer has {len(payload) - offset} bytes, expected {expected_bytes}"
        )
    values = np.frombuffer(payload, dtype=_DTYPE, offset=offset)

    parameters = []
    cursor = 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights = values[cursor:cursor + fan_in * fan_out].reshape(fan_in, fan_out)
        cursor += fan_in * fan_out
        biases = values[cursor:cursor + fan_out]
        cursor += fan_out
        parameters.append({"weights": weights, "biases": biases})
    return parameters


def model_payload_size(layer_sizes: Sequence[int]) -> int:
    """Predicted serialized size in bytes for an architecture (header excluded)."""
    values = sum(
        fan_in * fan_out + fan_out for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:])
    )
    return values * np.dtype(_DTYPE).itemsize
