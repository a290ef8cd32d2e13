"""A list or ``null`` where a hash, a filter id, an IPFS node name or a block
count belongs is the caller's mistake, not a server bug.

Each call below used to answer ``-32603`` (a list is unhashable, ``int(None)``
raises).  It must come back as a ``-32602`` that names the param and the
type it needs, without echoing the value.
"""

import json

import pytest

from repro.rpc import INVALID_PARAMS, make_request
from repro.system.stack import build_stack


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


@pytest.mark.parametrize("method, params, name, kind", MALFORMED,
                         ids=[case[0] for case in MALFORMED])
def test_a_wrongly_typed_param_is_a_typed_refusal(gateway, method, params,
                                                  name, kind):
    reply = gateway.handle_raw(json.dumps(make_request(method, params,
                                                       request_id=1)))
    assert json.loads(reply)["error"] == {
        "code": INVALID_PARAMS,
        "message": f"invalid params for {method}: {name} must be {kind}",
    }


@pytest.mark.parametrize("blocks", ["2", 1.5, True])
def test_evm_mine_takes_a_json_integer_only(gateway, blocks):
    reply = json.loads(gateway.handle_raw(json.dumps(
        make_request("evm_mine", [blocks], request_id=1))))
    assert reply["error"]["code"] == INVALID_PARAMS
    assert gateway.handle_raw(json.dumps(
        make_request("eth_blockNumber", [], request_id=2))).endswith(
            b'"result": "0x0"}')
