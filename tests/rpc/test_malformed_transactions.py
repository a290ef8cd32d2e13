"""Malformed transaction objects are the caller's mistake, not a server bug.

``Transaction.from_dict`` is the one reader of a transaction object, behind
``eth_sendRawTransaction`` (after the hex and JSON decode; ``eth_estimateGas``
reads a web3 call object instead, ``tests/rpc/test_estimate_gas.py``).  A
missing ``sender`` or a field that does not parse
must come back as a ``-32000`` whose ``error_class`` is
``InvalidTransactionError`` and whose message names the field without
echoing its value -- never as a ``-32603``.
"""

import json

import pytest

from repro.chain import EthereumNode
from repro.chain.transaction import Transaction
from repro.contracts import default_registry
from repro.errors import InvalidTransactionError
from repro.rpc import SERVER_ERROR, JsonRpcGateway, make_request
from repro.utils.encoding import to_hex

SENDER = "0x" + "11" * 20
HUGE = "0x" + "zz" * 5000


@pytest.fixture()
def gateway():
    return JsonRpcGateway(node=EthereumNode(backend=default_registry()))


def raw(payload):
    """``eth_sendRawTransaction``'s wire form of a transaction object."""
    return to_hex(json.dumps(payload).encode("utf-8"))


#: (transaction object, the field the refusal must name, missing?)
MALFORMED = [
    ({}, "sender", True),
    ({"to": SENDER}, "sender", True),
    ({"sender": SENDER, "data": "0xZZ"}, "data", False),
    ({"sender": SENDER, "data": "0x0"}, "data", False),
    ({"sender": SENDER, "data": HUGE}, "data", False),
    ({"sender": SENDER, "value": "abc"}, "value", False),
    ({"sender": SENDER, "value": [1]}, "value", False),
    ({"sender": SENDER, "nonce": "0x1"}, "nonce", False),
    ({"sender": SENDER, "gas_limit": {}}, "gas_limit", False),
    ({"sender": SENDER, "gas_price": None}, "gas_price", False),
    ({"sender": "0x12"}, "sender", False),
    ({"sender": "0x" + "ab" * 5000}, "sender", False),
    ({"sender": SENDER, "to": 5}, "to", False),
    ({"sender": SENDER, "signature": {"e": "zz"}}, "signature", False),
    ({"sender": SENDER, "signature": "abc"}, "signature", False),
]


def expected_message(name, missing):
    return f"transaction field {name!r} is {'missing' if missing else 'malformed'}"


@pytest.mark.parametrize("payload, name, missing", MALFORMED)
def test_from_dict_names_the_bad_field(payload, name, missing):
    with pytest.raises(InvalidTransactionError) as caught:
        Transaction.from_dict(payload)
    assert str(caught.value) == expected_message(name, missing)


@pytest.mark.parametrize("payload, name, missing", MALFORMED)
def test_a_raw_transaction_answers_a_typed_server_error(gateway, payload, name, missing):
    reply = gateway.handle_raw(json.dumps(
        make_request("eth_sendRawTransaction", [raw(payload)], request_id=1)))
    assert json.loads(reply)["error"] == {
        "code": SERVER_ERROR,
        "message": expected_message(name, missing),
        "data": {"error_class": "InvalidTransactionError"},
    }
    assert len(reply) < 250


def test_a_well_formed_object_still_reads():
    tx = Transaction.from_dict({"sender": SENDER, "to": SENDER, "value": "7",
                                "data": "0xabcd", "nonce": 2})
    assert (tx.value, tx.data, tx.nonce, tx.gas_limit) == (7, b"\xab\xcd", 2, 21_000)
