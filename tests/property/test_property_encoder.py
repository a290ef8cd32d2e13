"""Property pin for the gateway's reply encoder.

``handle_raw`` encodes with one prebuilt encoder (``reply_json``) and
hexlifies a :class:`HexString` result (``ipfs_cat``) straight into the reply
bytes instead of handing 636 kB of text to the escape scanner.  Whatever it does,
the bytes must equal ``json.dumps(gateway.handle(payload), default=str)``
encoded -- the reference below knows nothing of splicing -- over ids with
quotes and non-ASCII, nested results, wei-sized integers, values only
``default=str`` can render, error envelopes, notifications and batches.  The
splice is only sound because nothing but bytes can fill a ``HexString`` and
its text is ``0x`` + lowercase hex; that is pinned here too.

Mined blocks, receipts and transactions reach the reply as their plain
dicts: generated ones -- logs with nested args, reverted receipts with
non-ASCII reasons, contract creations with return values, float timestamps --
mixed into batches with ``HexString``, error and notification entries must
give the same bytes through ``handle_raw``, ``POST /`` and ``/ws`` as
``json.dumps`` of what in-process ``handle()`` returns.  A header and a
transaction memoise their hash (and a transaction its payload): assigning any
field of a header, receipt or transaction re-renders it exactly as a fresh
object with the same fields renders.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.chain.account import Address
from repro.chain.block import Block, BlockHeader
from repro.chain.events import EventLog
from repro.chain.keys import Signature
from repro.chain.receipts import TransactionReceipt
from repro.chain.transaction import Transaction
from repro.net import NetConfig, ServerThread, WebSocketClient, build_serve_stack
from repro.net.websocket import OP_TEXT, encode_frame
from repro.rpc.gateway import JsonRpcGateway
from repro.rpc.protocol import INVALID_PARAMS, JsonRpcError
from repro.utils.encoding import HexString
from repro.utils.serialization import reply_json

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


def serve_values(gateway, values):
    """Register ``take(i)`` (returns ``values[i]``) and ``refuse(i)``."""

    def take(index: int):
        return values[index]

    def refuse(index: int):
        raise JsonRpcError(INVALID_PARAMS, 'no "such" thing: é',
                           data={"seen": json.loads(json.dumps(values[index], default=str))})

    gateway.register("take", take)
    gateway.register("refuse", refuse)
    return gateway


def gateway_serving(values):
    return serve_values(JsonRpcGateway(), values)


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
    assert reply == (b"" if response is None
                     else json.dumps(response, default=str).encode())


@given(data=st.binary(max_size=200))
def test_only_bytes_fill_a_hex_string(data):
    hex_string = HexString(data)
    assert hex_string.data is data
    text = str(hex_string)
    assert text == "0x" + data.hex()
    assert set(text[2:]) <= set("0123456789abcdef")
    # nothing in it to escape
    assert json.dumps(hex_string, default=str) == json.dumps(text) == f'"{text}"'


@given(text=st.text())
@example(text='0x"}, {"injected": true')
@example(text="0xabcd")
def test_text_cannot_fill_a_hex_string(text):
    with pytest.raises(TypeError):
        HexString(text)


# -- chain objects ------------------------------------------------------------

addresses = st.binary(min_size=20, max_size=20).map(lambda raw: Address("0x" + raw.hex()))
hashes = st.binary(min_size=32, max_size=32).map(lambda raw: "0x" + raw.hex())
quantities = st.integers(0, 2**80)
texts = st.one_of(st.text(max_size=12), st.sampled_from(["é\"}", "ключ", "💥\\n", ""]))
event_logs = st.builds(
    EventLog, address=addresses, name=texts,
    args=st.dictionaries(st.text(max_size=6), json_values, max_size=3),
    block_number=st.integers(0, 10**6), transaction_hash=hashes,
    log_index=st.integers(0, 100))
receipts = st.builds(
    TransactionReceipt, transaction_hash=hashes, sender=addresses,
    to=st.none() | addresses, status=st.booleans(), gas_used=quantities,
    gas_price=quantities, block_number=st.integers(0, 10**6), block_hash=hashes,
    transaction_index=st.integers(0, 100), contract_address=st.none() | addresses,
    logs=st.lists(event_logs, max_size=3), return_value=json_values,
    revert_reason=st.none() | texts, cumulative_gas_used=quantities)
signatures = st.builds(Signature, e=st.integers(0, 2**256 - 1), s=st.integers(0, 2**256 - 1),
                       public_key=st.integers(0, 2**256 - 1))
transactions = st.builds(
    Transaction, sender=addresses, to=st.none() | addresses, value=quantities,
    data=st.binary(max_size=40), nonce=st.integers(0, 2**32),
    gas_limit=st.integers(1, 2**40), gas_price=quantities,
    signature=st.none() | signatures)
headers = st.builds(
    BlockHeader, number=st.integers(0, 10**9), parent_hash=hashes,
    timestamp=st.floats(0, 2**40, allow_nan=False), proposer=addresses,
    gas_used=quantities, gas_limit=quantities, transactions_root=hashes,
    receipts_root=hashes, extra_data=texts)
blocks = st.builds(Block, header=headers, transactions=st.lists(transactions, max_size=3),
                   receipts=st.lists(receipts, max_size=3))
#: ("chain", object, full_transactions): a handler returning its dict, as
#: ``eth_getBlockByNumber`` and friends do.
chain_values = st.tuples(st.just("chain"), st.one_of(blocks, receipts, transactions),
                         st.booleans())
mixed_calls = st.tuples(st.one_of(st.none(), ids),
                        st.sampled_from(["ok", "ok", "ok", "raises", "unknown", "malformed"]),
                        st.one_of(chain_values, chain_values, results))


def materialise(batch):
    """What each handler serves: a chain object as its dict."""
    values = []
    for _id, _kind, value in batch:
        if isinstance(value, tuple) and value[0] == "chain":
            _tag, source, full = value
            value = source.to_dict(full) if isinstance(source, Block) else source.to_dict()
        values.append(value)
    return values


def payload_of(batch, as_batch):
    payload = [envelope(index, request_id, kind)
               for index, (request_id, kind, _value) in enumerate(batch)]
    return payload if as_batch else payload[0]


def expected_reply(response) -> bytes:
    return b"" if response is None else json.dumps(response, default=str).encode()


@given(block=blocks, full=st.booleans())
def test_a_block_renders_its_dict(block, full):
    rendered = block.to_dict(full)
    assert rendered["header"] == block.header.to_dict()
    assert rendered["receipts"] == [receipt.to_dict() for receipt in block.receipts]
    assert rendered["transactions"] == ([tx.to_dict() for tx in block.transactions]
                                        if full else block.transaction_hashes())
    assert reply_json(rendered) == json.dumps(rendered, default=str)


@settings(max_examples=150, deadline=None)
@given(batch=st.lists(mixed_calls, min_size=1, max_size=6), as_batch=st.booleans())
def test_chain_objects_encode_byte_for_byte(batch, as_batch):
    gateway = gateway_serving(materialise(batch))
    payload = payload_of(batch, as_batch)
    assert gateway.handle_raw(json.dumps(payload)) == expected_reply(gateway.handle(payload))


@pytest.fixture(scope="module")
def served():
    """A real server whose gateway also serves ``take`` / ``refuse`` over
    whatever list the example puts in ``values``."""
    values = []
    server = build_serve_stack(NetConfig(port=0, block_interval_seconds=0))
    serve_values(server.gateway, values)
    with ServerThread(server):
        yield server.port, server.gateway, values


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(batch=st.lists(mixed_calls, min_size=1, max_size=6), as_batch=st.booleans())
def test_rendered_replies_over_http_and_ws(served, batch, as_batch):
    port, gateway, values = served
    values[:] = materialise(batch)
    payload = payload_of(batch, as_batch)
    body = json.dumps(payload).encode()
    expected = expected_reply(gateway.handle(payload))
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("POST", "/", body=body)
        response = connection.getresponse()
        assert (response.status, response.read()) == (200, expected)
    finally:
        connection.close()
    if expected:  # a notification-only payload gets no frame
        with WebSocketClient("127.0.0.1", port) as ws:
            ws._sock.sendall(encode_frame(OP_TEXT, body, mask=True))
            assert ws._read_frame() == (OP_TEXT, expected)


_ADDRESS = Address("0x" + "11" * 20)
#: A new value for every field, per class: assigning it must re-render.
REPLACEMENTS = {
    BlockHeader: {
        "number": 9, "parent_hash": "0x" + "ab" * 32, "timestamp": 2.5,
        "proposer": _ADDRESS, "gas_used": 7, "gas_limit": 8,
        "transactions_root": "0x01", "receipts_root": "0x02", "extra_data": "é"},
    TransactionReceipt: {
        "transaction_hash": "0x03", "sender": _ADDRESS, "to": _ADDRESS,
        "status": False, "gas_used": 5, "gas_price": 6, "block_number": 4,
        "block_hash": "0x04", "transaction_index": 3, "contract_address": _ADDRESS,
        "logs": [EventLog(address=_ADDRESS, name="Paid", args={"amount": 1})],
        "return_value": {"task": [1, "é"]}, "revert_reason": "réverté: \"x\"",
        "cumulative_gas_used": 99},
    Transaction: {
        "sender": _ADDRESS, "to": None, "value": 5, "data": b"\x01\x02", "nonce": 3,
        "gas_limit": 50_000, "gas_price": 7, "signature": Signature(1, 2, 3)},
}
BASES = {
    BlockHeader: lambda: BlockHeader(number=1, parent_hash="0x00", timestamp=1.0,
                                     proposer=Address("0x" + "22" * 20)),
    TransactionReceipt: lambda: TransactionReceipt(
        transaction_hash="0x01", sender=Address("0x" + "22" * 20), to=None,
        status=True, gas_used=21_000, gas_price=10**9),
    Transaction: lambda: Transaction(sender=Address("0x" + "22" * 20),
                                     to=Address("0x" + "33" * 20), value=1),
}


def test_the_replacement_table_covers_every_field():
    for cls, table in REPLACEMENTS.items():
        assert set(table) == {field.name for field in dataclasses.fields(cls)}


@pytest.mark.parametrize("cls, name", [(cls, name) for cls, table in REPLACEMENTS.items()
                                       for name in table])
def test_assigning_any_field_re_renders(cls, name):
    source = BASES[cls]()
    before = reply_json(source.to_dict())  # fills the hash and payload memos
    setattr(source, name, REPLACEMENTS[cls][name])
    after = reply_json(source.to_dict())
    fresh = dataclasses.replace(BASES[cls](), **{name: REPLACEMENTS[cls][name]})
    assert after == reply_json(fresh.to_dict()) != before
