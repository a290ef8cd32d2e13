"""Edge envelopes pinned byte for byte, with the counters they leave.

Every reply below is the exact bytes ``JsonRpcGateway.handle_raw`` -- what
``POST /`` and ``/ws`` write verbatim -- returned for the body beside it
when each call still crossed a composed middleware pipeline (metrics first,
then the reply cache, then the handler).  They were recorded then and are
kept unedited: validation, notifications, the reply cache and a pre-rendered
``ipfs_cat`` result must read the same after dispatch became one pass per
call.  So must the request counters those calls leave behind.

A body that is not UTF-8 (UTF-16 or UTF-32, which ``json.loads(bytes)``
used to detect and accept) is the one deliberate difference: it is a
``-32700`` parse error now (RFC 8259 section 8.1).
"""

import json

import pytest

from repro.net import NetConfig, build_serve_stack
from repro.rpc import PARSE_ERROR

ADDRESS = "0x" + "5a" * 20


def body(payload) -> bytes:
    return json.dumps(payload).encode()


def call(method, params=None, request_id=1):
    envelope = {"jsonrpc": "2.0", "id": request_id, "method": method}
    if params is not None:
        envelope["params"] = params
    return envelope


def note(method, params=None):
    envelope = {"jsonrpc": "2.0", "method": method}
    if params is not None:
        envelope["params"] = params
    return envelope


#: (name, body) sent in order to one served gateway.
SERVED = [
    ("parse_error", b'{"jsonrpc": "2.0", "id": 1, "method"'),
    ("invalid_utf8", b'{"jsonrpc": "2.0", "id": 1, "method": "eth_chainId\xff"}'),
    ("empty_batch", b"[]"),
    ("non_object_entry", body([7, call("eth_chainId", [], 2)])),
    ("jsonrpc_1_0", body({"jsonrpc": "1.0", "id": 3, "method": "eth_chainId"})),
    ("missing_method", body({"jsonrpc": "2.0", "id": 4})),
    ("bool_id", body(call("eth_chainId", [], True))),
    ("unknown_method", body(call("eth_noSuchMethod", [], 5))),
    ("arity_error", body(call("eth_getBalance", [ADDRESS, "latest", 3], 6))),
    ("cached_read", body(call("eth_getBalance", [ADDRESS, "latest"], "r1"))),
    ("cached_read_again", body(call("eth_getBalance", [ADDRESS, "latest"], 2.5))),
    ("notifications_only", body([note("eth_blockNumber"), note("eth_chainId", []),
                                 note("eth_noSuchMethod")])),
    ("mixed_batch", body([note("eth_blockNumber"), call("eth_blockNumber", [], 8),
                          note("eth_noSuchMethod", []), call("eth_chainId", None, "é\"9"),
                          call("eth_noSuchMethod", [], 10), {"id": 11}])),
    ("utf8_bom", b"\xef\xbb\xbf" + body(call("eth_chainId", [], 14))),
    ("whitespace", b" \r\n\t" + body(call("eth_chainId", [], 15)) + b"\n"),
    ("extra_data", body(call("eth_chainId", [], 16)) + b" {}"),
    ("too_deep", b"[" * 100_000),
    ("ipfs_add", body(call("ipfs_add", ["0x" + bytes(range(256)).hex()], 12))),
]

REPLIES = {
    'parse_error': b'{"jsonrpc": "2.0", "id": null, "error": {"code": -32700, "message": "parse error: Expecting \':\' delimiter: line 1 column 37 (char 36)"}}',
    'invalid_utf8': b'{"jsonrpc": "2.0", "id": null, "error": {"code": -32700, "message": "parse error: \'utf-8\' codec can\'t decode byte 0xff in position 50: invalid start byte"}}',
    'empty_batch': b'{"jsonrpc": "2.0", "id": null, "error": {"code": -32600, "message": "batch must not be empty"}}',
    'non_object_entry': b'[{"jsonrpc": "2.0", "id": null, "error": {"code": -32600, "message": "request must be an object"}}, {"jsonrpc": "2.0", "id": 2, "result": "0xaa36a7"}]',
    'jsonrpc_1_0': b'{"jsonrpc": "2.0", "id": 3, "error": {"code": -32600, "message": "request must declare \\"jsonrpc\\": \\"2.0\\""}}',
    'missing_method': b'{"jsonrpc": "2.0", "id": 4, "error": {"code": -32600, "message": "method must be a non-empty string"}}',
    'bool_id': b'{"jsonrpc": "2.0", "id": null, "error": {"code": -32600, "message": "id must be a string or a number"}}',
    'unknown_method': b'{"jsonrpc": "2.0", "id": 5, "error": {"code": -32601, "message": "method \'eth_noSuchMethod\' not found"}}',
    'arity_error': b'{"jsonrpc": "2.0", "id": 6, "error": {"code": -32602, "message": "invalid params for eth_getBalance: too many positional arguments"}}',
    'cached_read': b'{"jsonrpc": "2.0", "id": "r1", "result": "0x0"}',
    'cached_read_again': b'{"jsonrpc": "2.0", "id": 2.5, "result": "0x0"}',
    'notifications_only': b'',
    'mixed_batch': b'[{"jsonrpc": "2.0", "id": 8, "result": "0x0"}, {"jsonrpc": "2.0", "id": "\\u00e9\\"9", "result": "0xaa36a7"}, {"jsonrpc": "2.0", "id": 10, "error": {"code": -32601, "message": "method \'eth_noSuchMethod\' not found"}}, {"jsonrpc": "2.0", "id": 11, "error": {"code": -32600, "message": "request must declare \\"jsonrpc\\": \\"2.0\\""}}]',
    'utf8_bom': b'{"jsonrpc": "2.0", "id": 14, "result": "0xaa36a7"}',
    'whitespace': b'{"jsonrpc": "2.0", "id": 15, "result": "0xaa36a7"}',
    'extra_data': b'{"jsonrpc": "2.0", "id": null, "error": {"code": -32700, "message": "parse error: Extra data: line 1 column 69 (char 68)"}}',
    'too_deep': b'{"jsonrpc": "2.0", "id": null, "error": {"code": -32700, "message": "parse error: maximum recursion depth exceeded while decoding a JSON array from a unicode string"}}',
    'ipfs_add': b'{"jsonrpc": "2.0", "id": 12, "result": {"cid": "QmTYotk7N6YJqg4EYPoFspW3iUbXGiMwJ39Z1yMiMmop4b", "size": 256, "num_blocks": 1}}',
    'ipfs_cat': b'{"jsonrpc": "2.0", "id": 13, "result": "0x000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"}',
}

SERVED_COUNTERS = {'requests_total': 17,
 'errors_total': 5,
 'by_method': {'eth_blockNumber': 3,
               'eth_chainId': 5,
               'eth_getBalance': 3,
               'eth_noSuchMethod': 4,
               'ipfs_add': 1,
               'ipfs_cat': 1},
 'errors_by_code': {'-32602': 1, '-32601': 4}}

def served_gateway():
    return build_serve_stack(NetConfig(port=0, block_interval_seconds=0)).gateway


def replies_of(gateway, bodies):
    replies = {name: gateway.handle_raw(payload) for name, payload in bodies}
    if "ipfs_add" in replies:
        cid = json.loads(replies["ipfs_add"])["result"]["cid"]
        replies["ipfs_cat"] = gateway.handle_raw(body(call("ipfs_cat", [cid], 13)))
    return replies


def assert_histogram_counts_every_request(gateway):
    snapshot = gateway.metrics.snapshot()
    assert sum(snapshot["latency_histogram_ms"].values()) == snapshot["requests_total"]


def test_served_replies_and_counters():
    gateway = served_gateway()
    replies = replies_of(gateway, SERVED)
    assert replies == {name: REPLIES[name] for name in replies}
    assert gateway.metrics.snapshot(include_latency=False) == SERVED_COUNTERS
    assert_histogram_counts_every_request(gateway)


@pytest.mark.parametrize("payload", [
    *(json.dumps(call("eth_chainId", [], 1)).encode(encoding)
      for encoding in ("utf-16", "utf-16-le", "utf-16-be", "utf-32")),
    b"\xff\xfe",  # a UTF-16 byte-order mark alone
], ids=["utf-16", "utf-16-le", "utf-16-be", "utf-32", "utf-16-bom"])
def test_a_body_that_is_not_utf8_is_a_parse_error(payload):
    gateway = served_gateway()
    reply = json.loads(gateway.handle_raw(payload))
    assert reply["id"] is None
    assert reply["error"]["code"] == PARSE_ERROR
    assert gateway.metrics.requests_total == 0


def test_a_utf16_body_answers_the_utf8_decode_error():
    reply = served_gateway().handle_raw('{"jsonrpc": "2.0", "id": 1}'.encode("utf-16"))
    assert reply == (b'{"jsonrpc": "2.0", "id": null, "error": {"code": -32700, '
                     b'"message": "parse error: \'utf-8\' codec can\'t decode byte 0xff '
                     b'in position 0: invalid start byte"}}')
