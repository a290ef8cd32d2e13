"""Property pin for the gateway's reply encoder.

``handle_raw`` encodes with one module-level ``JSONEncoder`` and splices a
:class:`HexString` result (``ipfs_cat``) into the envelope instead of handing
636 kB to the escape scanner.  Whatever it does, the text must equal
``json.dumps(gateway.handle(payload), default=str)`` byte for byte -- the
reference below knows nothing of splicing -- over ids with quotes and
non-ASCII, nested results, wei-sized integers, values only ``default=str``
can render, error envelopes, notifications and batches.  The splice is only
sound because nothing but ``bytes.hex()`` can fill a ``HexString``; that is
pinned here too.
"""

from __future__ import annotations

import json
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rpc.gateway import JsonRpcGateway
from repro.rpc.protocol import INVALID_PARAMS, JsonRpcError
from repro.utils.encoding import HexString

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**270),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20), st.sampled_from(['"', "\\", " ", "é\"}", "0xab"]))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12)
#: What a handler may return: JSON, a hex payload (top level or nested), or a
#: type only ``default=str`` renders.
results = st.one_of(
    json_values,
    st.binary(max_size=64).map(HexString),
    st.binary(max_size=8).map(lambda data: {"payload": HexString(data), "n": 1}),
    st.decimals(allow_nan=False, allow_infinity=False).map(lambda d: [d, Decimal(1)]))
ids = st.one_of(st.integers(-2**65, 2**65), st.text(max_size=12),
                st.sampled_from(['a"b', "ключ", "\\", ""]),
                st.floats(allow_nan=False, allow_infinity=False))
#: (id or None for a notification, kind, what the handler returns or raises with)
calls = st.tuples(st.one_of(st.none(), ids),
                  st.sampled_from(["ok", "ok", "raises", "unknown", "malformed"]),
                  results)


def gateway_serving(values):
    gateway = JsonRpcGateway()

    def take(index: int):
        return values[index]

    def refuse(index: int):
        raise JsonRpcError(INVALID_PARAMS, 'no "such" thing: é',
                           data={"seen": json.loads(json.dumps(values[index], default=str))})

    gateway.register("take", take)
    gateway.register("refuse", refuse)
    return gateway


def envelope(index, request_id, kind):
    request = {"jsonrpc": "2.0", "method": {"ok": "take", "raises": "refuse",
                                            "unknown": "nope"}.get(kind, "take"),
               "params": [index]}
    if kind == "malformed":
        request["jsonrpc"] = "1.0"
    if request_id is not None:
        request["id"] = request_id
    return request


@settings(max_examples=200, deadline=None)
@given(batch=st.lists(calls, min_size=1, max_size=5), as_batch=st.booleans(),
       as_bytes=st.booleans())
@example(batch=[(1, "ok", HexString(b"\x00\xff" * 40))], as_batch=False, as_bytes=True)
@example(batch=[('q"', "ok", HexString(b"")), (2, "raises", 5), (None, "ok", 1),
                ("é", "ok", HexString(b"\x01"))], as_batch=True, as_bytes=False)
def test_handle_raw_equals_json_dumps_byte_for_byte(batch, as_batch, as_bytes):
    gateway = gateway_serving([value for _id, _kind, value in batch])
    payload = [envelope(index, request_id, kind)
               for index, (request_id, kind, _value) in enumerate(batch)]
    if not as_batch:
        payload = payload[0]
    body = json.dumps(payload)
    reply = gateway.handle_raw(body.encode("utf-8") if as_bytes else body)
    response = gateway.handle(payload)
    assert reply == ("" if response is None else json.dumps(response, default=str))


@given(data=st.binary(max_size=200))
def test_only_bytes_fill_a_hex_string(data):
    text = HexString(data)
    assert text == "0x" + data.hex() and isinstance(text, str)
    assert set(text[2:]) <= set("0123456789abcdef")
    assert json.dumps(text) == f'"{text}"'  # nothing in it to escape


@given(text=st.text())
@example(text='0x"}, {"injected": true')
@example(text="0xabcd")
def test_text_cannot_fill_a_hex_string(text):
    with pytest.raises(TypeError):
        HexString(text)
