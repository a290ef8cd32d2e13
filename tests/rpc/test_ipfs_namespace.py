"""The ``ipfs_*`` door: payloads stay bytes in process, params are checked.

``ipfs_cat`` returns a :class:`HexString` -- the payload's bytes; only a wire
reply renders them as ``0x`` text -- so the in-process client takes the bytes
as they are, and the CLI prints what it printed when the result was text.
Malformed hex is a ``-32602`` that names the param and gives the length and
the first bad offset instead of echoing the text back (a bad 636 kB upload
used to come back whole in a ``-32603``), and ``pin`` takes only a JSON
boolean.
"""

import json
import os
from unittest import mock

import pytest

from repro.chain import EthereumNode
from repro.cli import main
from repro.contracts import default_registry
from repro.ipfs import IpfsNode, Swarm
from repro.rpc import INVALID_PARAMS, JsonRpcGateway, MarketplaceClient, make_request
from repro.rpc.protocol import SERVER_ERROR
from repro.utils.encoding import HexString
from tests.oracles import rpc_call

PAYLOAD = os.urandom(5_000)
ADDRESS = "0x" + "11" * 20


@pytest.fixture()
def ipfs():
    return IpfsNode("solo", chunk_size=2_048)


@pytest.fixture()
def gateway(ipfs):
    return JsonRpcGateway(node=EthereumNode(backend=default_registry())).serve_ipfs_node(ipfs)


class TestPayloadsStayBytes:
    def test_the_client_cat_takes_the_bytes_with_no_hex_round_trip(self, ipfs):
        client = MarketplaceClient(JsonRpcGateway().serve_ipfs_node(ipfs),
                                   default_ipfs_node=ipfs.name)
        cid = client.ipfs.add(PAYLOAD)["cid"]
        with mock.patch.object(HexString, "__str__", side_effect=AssertionError):
            assert client.ipfs.cat(cid) == PAYLOAD

    def test_gateway_call_returns_the_hex_string(self, gateway, ipfs):
        cid = ipfs.add_bytes(PAYLOAD).cid_string
        result = rpc_call(gateway, "ipfs_cat", cid)
        assert type(result) is HexString and result.data == PAYLOAD
        assert str(result) == "0x" + PAYLOAD.hex()

    def test_the_wire_reply_renders_the_hex(self, gateway, ipfs):
        cid = ipfs.add_bytes(PAYLOAD).cid_string
        reply = gateway.handle_raw(json.dumps(make_request("ipfs_cat", [cid], request_id=3)))
        assert reply == b'{"jsonrpc": "2.0", "id": 3, "result": "0x%s"}' % PAYLOAD.hex().encode()

    def test_repro_rpc_ipfs_cat_prints_the_same_text(self, capsys, monkeypatch):
        from repro.system import stack as stack_module

        build_stack = stack_module.build_stack

        def with_content(*args, **kwargs):
            stack = build_stack(*args, **kwargs)
            # Served, so the node runs as long as the gateway: a swarm lists
            # only the nodes something holds.
            node = IpfsNode("cli", stack.swarm)
            stack.gateway.serve_ipfs_node(node)
            node.add_bytes(PAYLOAD)
            return stack

        monkeypatch.setattr(stack_module, "build_stack", with_content)
        cid = IpfsNode("probe").add_bytes(PAYLOAD).cid_string  # content-addressed
        assert main(["rpc", "ipfs_cat", cid]) == 0
        # What ``json.dumps`` printed when the result was ``0x`` text.
        assert capsys.readouterr().out == json.dumps(
            {"id": 1, "jsonrpc": "2.0", "result": "0x" + PAYLOAD.hex()},
            indent=2, sort_keys=True) + "\n"


#: (method, params, code, message): every malformed param named, no text echoed.
MALFORMED = [
    ("ipfs_add", ["0xzz" + "ab" * 1023], INVALID_PARAMS,
     "invalid params for ipfs_add: data: non-hex character at offset 2 of 2050"),
    ("ipfs_add", ["0xabc"], INVALID_PARAMS,
     "invalid params for ipfs_add: data: odd-length hex string (5 characters)"),
    ("ipfs_add", [5], INVALID_PARAMS,
     "invalid params for ipfs_add: data: expected a hex string, got int"),
    ("ipfs_add", ["0xab  cd"], INVALID_PARAMS,
     "invalid params for ipfs_add: data: non-hex character at offset 4 of 8"),
    ("ipfs_add", ["0xé1"], INVALID_PARAMS,
     "invalid params for ipfs_add: data: non-hex character at offset 2 of 4"),
    ("ipfs_add", ["0xabcd", None, "false"], INVALID_PARAMS,
     "invalid params for ipfs_add: pin must be true or false"),
    ("ipfs_add", {"data": "0xabcd", "pin": 1}, INVALID_PARAMS,
     "invalid params for ipfs_add: pin must be true or false"),
    ("eth_call", [{"to": ADDRESS, "data": "0xz1"}], INVALID_PARAMS,
     "invalid params for eth_call: data: non-hex character at offset 2 of 4"),
    ("eth_sendRawTransaction", ["0x" + "zz" * 1000], SERVER_ERROR,
     "undecodable raw transaction: non-hex character at offset 2 of 2002"),
    ("eth_sendRawTransaction", [7], SERVER_ERROR,
     "undecodable raw transaction: expected a hex string, got int"),
]


@pytest.mark.parametrize("method, params, code, message", MALFORMED,
                         ids=[f"{case[0]}-{index}" for index, case in enumerate(MALFORMED)])
def test_malformed_hex_is_named_not_echoed(gateway, method, params, code, message):
    reply = gateway.handle_raw(json.dumps(make_request(method, params, request_id=1)))
    error = json.loads(reply)["error"]
    assert (error["code"], error["message"]) == (code, message)
    assert len(reply) < 250


class TestPin:
    def test_pin_defaults_to_true_and_false_means_false(self, gateway, ipfs):
        pinned = rpc_call(gateway, "ipfs_add", "0xabcd")["cid"]
        loose = rpc_call(gateway, "ipfs_add", "0xabcdef", None, False)["cid"]
        assert pinned in ipfs.pins
        assert loose not in ipfs.pins

    def test_a_string_false_stores_nothing(self, gateway, ipfs):
        reply = gateway.handle(make_request("ipfs_add", ["0xabcd", None, "false"]))
        assert reply["error"]["code"] == INVALID_PARAMS
        assert len(ipfs.blockstore) == 0 and len(ipfs.pins) == 0


class TestNodeChoice:
    """Which node an ``ipfs_*`` call lands on, and the errors when none fits."""

    def test_a_swarm_member_is_found_by_name_or_peer_id(self):
        swarm = Swarm()
        first, second = IpfsNode("first", swarm), IpfsNode("second", swarm)
        gateway = JsonRpcGateway(swarm=swarm)
        rpc_call(gateway, "ipfs_add", "0xabcd", "second")
        rpc_call(gateway, "ipfs_add", "0xabcdef", second.peer_id)
        assert len(first.blockstore) == 0 and len(second.blockstore) == 2

    def test_an_unknown_node_is_invalid_params(self, gateway):
        error = gateway.handle(make_request("ipfs_add", ["0xabcd", "nowhere"]))["error"]
        assert (error["code"], error["message"]) == \
            (INVALID_PARAMS, "unknown IPFS node 'nowhere'")

    def test_a_gateway_without_a_node_is_a_server_error(self):
        gateway = JsonRpcGateway(swarm=Swarm())
        error = gateway.handle(make_request("ipfs_add", ["0xabcd"]))["error"]
        assert (error["code"], error["message"]) == \
            (SERVER_ERROR, "no IPFS node attached to this gateway")

    def test_two_served_nodes_need_the_node_param(self, gateway):
        gateway.serve_ipfs_node(IpfsNode("duo"))
        error = gateway.handle(make_request("ipfs_add", ["0xabcd"]))["error"]
        assert error["code"] == INVALID_PARAMS
        assert "pass \"node\" (one of ['duo', 'solo'])" in error["message"]
