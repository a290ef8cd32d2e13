"""A list or ``null`` where a hash, a filter id, an IPFS node name, a block
count, a limit or an event name belongs is the caller's mistake, not a
server bug.

Each call below used to answer ``-32603`` (a list is unhashable, ``int(None)``
raises, ``None <= 0`` is a ``TypeError``).  It must come back as a ``-32602``
that names the param and the type it needs, without echoing the value.

An error that does quote its input (a method name, a block tag, an address,
a hash) quotes a bounded prefix of it, and ``eth_getBlockByNumber`` takes its
``full_transactions`` flag as a JSON boolean only (``"no"`` used to mean yes).
"""

import json

import pytest

from repro.rpc import INVALID_PARAMS, make_request
from repro.rpc.namespaces import MAX_MINE_BLOCKS
from repro.rpc.protocol import (
    MAX_ERROR_MESSAGE_CHARS,
    METHOD_NOT_FOUND,
    SERVER_ERROR,
)
from repro.storage import StorageEngine
from repro.system.stack import build_stack
from tests.oracles import rpc_call


@pytest.fixture()
def gateway():
    gateway = build_stack().gateway
    # An installed filter: an empty table answers a list id without hashing it.
    gateway.handle({"jsonrpc": "2.0", "id": 0, "method": "eth_newBlockFilter",
                    "params": []})
    return gateway


#: (method, params, the param the refusal must name, the type it needs)
MALFORMED = [
    ("eth_getTransactionByHash", [[]], "tx_hash", "a string"),
    ("eth_getTransactionReceipt", [[]], "tx_hash", "a string"),
    ("eth_getFilterChanges", [[]], "filter_id", "a string"),
    ("eth_getFilterLogs", [[]], "filter_id", "a string"),
    ("eth_uninstallFilter", [[]], "filter_id", "a string"),
    ("ipfs_add", [None, []], "node", "a string"),
    ("ipfs_cat", [None, []], "node", "a string"),
    ("ipfs_pin", [None, []], "node", "a string"),
    ("ipfs_stat", [None, []], "node", "a string"),
    ("evm_mine", [None], "blocks", "an integer"),
]


#: The optional namespaces, mounted on a stack that has both.
MALFORMED_OPTIONAL = [
    ("obs_top", [None], "count", "an integer"),
    ("obs_traces", [[]], "limit", "an integer"),
    ("obs_trace", [[]], "trace_id", "a string"),
    ("obs_events", [[], {}], "kind", "a string"),
    ("analytics_series", [[]], "event", "a string"),
    ("analytics_leaderboard", [None, []], "limit", "an integer"),
]


@pytest.fixture(scope="module")
def full_gateway():
    return build_stack(storage=StorageEngine(), observability=True,
                       analytics=True).gateway


def assert_typed_refusal(gateway, method, params, name, kind):
    reply = gateway.handle_raw(json.dumps(make_request(method, params,
                                                       request_id=1)))
    assert json.loads(reply)["error"] == {
        "code": INVALID_PARAMS,
        "message": f"invalid params for {method}: {name} must be {kind}",
    }


@pytest.mark.parametrize("method, params, name, kind", MALFORMED,
                         ids=[case[0] for case in MALFORMED])
def test_a_wrongly_typed_param_is_a_typed_refusal(gateway, method, params,
                                                  name, kind):
    assert_typed_refusal(gateway, method, params, name, kind)


@pytest.mark.parametrize("method, params, name, kind", MALFORMED_OPTIONAL,
                         ids=[case[0] for case in MALFORMED_OPTIONAL])
def test_an_optional_namespace_refuses_a_wrongly_typed_param(
        full_gateway, method, params, name, kind):
    assert_typed_refusal(full_gateway, method, params, name, kind)


@pytest.mark.parametrize("blocks", [MAX_MINE_BLOCKS + 1, 0, -5])
def test_evm_mine_refuses_a_count_out_of_range(gateway, blocks):
    reply = json.loads(gateway.handle_raw(json.dumps(
        make_request("evm_mine", [blocks], request_id=1))))
    assert reply["error"] == {
        "code": INVALID_PARAMS,
        "message": f"invalid params for evm_mine: blocks must be 1 to "
                   f"{MAX_MINE_BLOCKS}",
    }
    assert gateway.handle_raw(json.dumps(
        make_request("eth_blockNumber", [], request_id=2))).endswith(
            b'"result": "0x0"}')


def test_evm_mine_takes_the_largest_count(gateway):
    assert len(rpc_call(gateway, "evm_mine", MAX_MINE_BLOCKS)) == MAX_MINE_BLOCKS


@pytest.mark.parametrize("blocks", ["2", 1.5, True])
def test_evm_mine_takes_a_json_integer_only(gateway, blocks):
    reply = json.loads(gateway.handle_raw(json.dumps(
        make_request("evm_mine", [blocks], request_id=1))))
    assert reply["error"]["code"] == INVALID_PARAMS
    assert gateway.handle_raw(json.dumps(
        make_request("eth_blockNumber", [], request_id=2))).endswith(
            b'"result": "0x0"}')


@pytest.mark.parametrize("name, message", [
    (["payments", "x" * 64], "name must be a string"),
    ("x" * 64, "name must be one of payments, submissions, fees"),
], ids=["list", "unknown"])
def test_analytics_leaderboard_names_the_boards_without_echoing_the_name(
        full_gateway, name, message):
    reply = full_gateway.handle_raw(json.dumps(make_request(
        "analytics_leaderboard", [name, 10], request_id=1)))
    assert "x" * 64 not in reply.decode()
    assert json.loads(reply)["error"] == {
        "code": INVALID_PARAMS,
        "message": f"invalid params for analytics_leaderboard: {message}",
    }


LONG = "a" * 100_000

#: (method, params, the error code): each echoed the 100 kB value whole.
UNBOUNDED = [
    (LONG, [], METHOD_NOT_FOUND),
    ("eth_getBlockByNumber", [LONG, False], INVALID_PARAMS),
    ("eth_getLogs", [{"from_block": LONG}], INVALID_PARAMS),
    ("eth_getBalance", ["0x" + LONG], SERVER_ERROR),
    ("eth_getTransactionByHash", ["0x" + LONG], SERVER_ERROR),
]


@pytest.mark.parametrize("method, params, code", UNBOUNDED,
                         ids=["method", "block_tag", "log_tag", "address", "hash"])
def test_an_error_echoes_a_bounded_prefix_of_the_input(gateway, method, params, code):
    reply = gateway.handle_raw(json.dumps(make_request(method, params, request_id=1)))
    error = json.loads(reply)["error"]
    assert error["code"] == code
    assert len(error["message"]) == MAX_ERROR_MESSAGE_CHARS + len("...")
    assert error["message"].endswith("a...")
    assert len(reply) < 1024


@pytest.mark.parametrize("full", ["no", 1, 0, None, {"x": 1}, [True]])
def test_full_transactions_takes_a_json_boolean_only(gateway, full):
    assert_typed_refusal(gateway, "eth_getBlockByNumber", ["latest", full],
                         "full_transactions", "a boolean")
