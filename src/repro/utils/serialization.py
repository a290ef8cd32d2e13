"""Deterministic serialization helpers.

Three encodings are provided:

* :func:`canonical_dumps` / :func:`canonical_loads` -- canonical JSON
  (sorted keys, fixed separators, UTF-8) used for hashing structured objects
  such as transactions and IPFS DAG nodes.  Bytes values are transparently
  encoded as ``{"__bytes__": "0x..."}`` envelopes so round-tripping is exact.
* :func:`rlp_encode` -- a recursive-length-prefix encoding in the spirit of
  Ethereum's RLP, used to give transactions and blocks a compact binary wire
  form whose byte length feeds the calldata gas computation.
* :func:`reply_json` -- the JSON-RPC reply encoding,
  ``json.dumps(value, default=str)`` with its C encoder built once.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Sequence, Union

RlpItem = Union[bytes, Sequence["RlpItem"]]


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------


def _encode_value(value: Any) -> Any:
    """Recursively rewrite values into a JSON-safe canonical form."""
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": "0x" + bytes(value).hex()}
    if isinstance(value, dict):
        return {str(key): _encode_value(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(item) for item in value]
    if hasattr(value, "to_dict"):
        return _encode_value(value.to_dict())
    return value


def decode_canonical(value: Any) -> Any:
    """Inverse of :func:`_encode_value`: parsed canonical JSON back to the
    values it encodes (``canonical_loads`` is this after ``json.loads``)."""
    if isinstance(value, dict):
        if set(value.keys()) == {"__bytes__"}:
            return bytes.fromhex(value["__bytes__"][2:])
        return {key: decode_canonical(val) for key, val in value.items()}
    if isinstance(value, list):
        return [decode_canonical(item) for item in value]
    return value


def canonical_dumps(obj: Any) -> str:
    """Serialize ``obj`` to canonical JSON (sorted keys, no whitespace)."""
    return json.dumps(_encode_value(obj), sort_keys=True, separators=(",", ":"))


def canonical_loads(text: str) -> Any:
    """Parse canonical JSON produced by :func:`canonical_dumps`."""
    return decode_canonical(json.loads(text))


# ---------------------------------------------------------------------------
# Reply JSON
# ---------------------------------------------------------------------------

#: ``JSONEncoder(default=str).encode`` builds a C encoder on every call; this
#: one is built once.  It keeps no circular-reference markers (a cycle is a
#: ``RecursionError`` instead of a ``ValueError``), so no state outlives a call.
_reply_chunks = (None if c_make_encoder is None else c_make_encoder(
    None, str, encode_basestring_ascii, None, ": ", ", ", False, False, True))


def reply_json(value: Any) -> str:
    """``json.dumps(value, default=str)``, character for character."""
    if _reply_chunks is None:
        return json.dumps(value, default=str)
    return "".join(_reply_chunks(value, 0))


# ---------------------------------------------------------------------------
# RLP-like binary encoding
# ---------------------------------------------------------------------------


def _encode_length(length: int, offset: int) -> bytes:
    """Encode a length header per the RLP scheme."""
    if length < 56:
        return bytes([offset + length])
    length_bytes = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([offset + 55 + len(length_bytes)]) + length_bytes


def rlp_encode(item: RlpItem) -> bytes:
    """Encode a nested structure of bytes / lists into RLP-style bytes.

    Integers and strings are accepted for convenience and converted to their
    minimal big-endian / UTF-8 byte representation first.
    """
    if isinstance(item, int):
        if item < 0:
            raise ValueError("rlp_encode does not support negative integers")
        item = item.to_bytes((item.bit_length() + 7) // 8, "big") if item else b""
    if isinstance(item, str):
        item = item.encode("utf-8")
    if isinstance(item, (bytes, bytearray)):
        data = bytes(item)
        if len(data) == 1 and data[0] < 0x80:
            return data
        return _encode_length(len(data), 0x80) + data
    if isinstance(item, (list, tuple)):
        payload = b"".join(rlp_encode(sub) for sub in item)
        return _encode_length(len(payload), 0xC0) + payload
    raise TypeError(f"rlp_encode cannot encode {type(item).__name__}")
