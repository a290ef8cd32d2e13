"""``eth_estimateGas`` prices the call object a web3 client sends.

The object carries ``from``, ``to``, ``value``, ``data``, ``gas`` and
``gasPrice`` as hex quantities and no signature or nonce: estimating needs
neither, so the probe is an unsigned transaction at the sender's current
nonce, and the estimate equals the node's for the same transaction.
"""

import json

import pytest

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.chain.account import Address
from repro.chain.transaction import Transaction, encode_call, encode_create
from repro.contracts import default_registry
from repro.rpc import INVALID_PARAMS, JsonRpcGateway, from_quantity, make_request
from repro.utils.units import ether_to_wei
from tests.oracles import rpc_call

ALICE = KeyPair.from_label("estimate-alice")
BOB = KeyPair.from_label("estimate-bob")
BLOCK_GAS_LIMIT = 30_000_000


@pytest.fixture()
def gateway():
    node = EthereumNode(backend=default_registry())
    Faucet(node).drip(ALICE.address, ether_to_wei(5))
    return JsonRpcGateway(node=node)


def node_estimate(gateway, **fields):
    """The node's estimate for the unsigned transaction the object names."""
    node = gateway.eth.node
    sender = fields.pop("sender", ALICE.address)
    return node.estimate_gas(Transaction(
        sender=Address(sender), nonce=node.get_transaction_count(sender),
        **{"gas_limit": BLOCK_GAS_LIMIT, "gas_price": 0, **fields}))


def error_of(gateway, params):
    reply = gateway.handle_raw(json.dumps(make_request("eth_estimateGas", params,
                                                       request_id=1)))
    return json.loads(reply)["error"]


class TestWeb3CallObjects:
    def test_a_web3_transfer_object_is_estimated(self, gateway):
        estimated = rpc_call(gateway, "eth_estimateGas", {
            "from": ALICE.address, "to": BOB.address, "value": hex(10**15)})
        assert from_quantity(estimated) == node_estimate(
            gateway, to=Address(BOB.address), value=10**15) >= 21_000

    def test_a_contract_call_is_estimated_at_the_senders_nonce(self, gateway):
        node = gateway.eth.node
        deploy = Transaction(sender=Address(ALICE.address), to=None, nonce=0,
                             data=encode_create("CidStorage", []), gas_limit=3_000_000,
                             gas_price=10**9).sign(ALICE)
        contract = node.wait_for_receipt(node.send_transaction(deploy)).contract_address
        data = encode_call("uploadCid", ["bafy-estimate"])
        estimated = rpc_call(gateway, "eth_estimateGas", {
            "from": ALICE.address, "to": str(contract), "data": "0x" + data.hex(),
            "gas": hex(300_000), "gasPrice": hex(10**9)})
        assert node.get_transaction_count(ALICE.address) == 1
        assert from_quantity(estimated) == node_estimate(
            gateway, to=contract, data=data, gas_limit=300_000, gas_price=10**9)

    def test_an_omitted_sender_is_the_zero_address(self, gateway):
        estimated = rpc_call(gateway, "eth_estimateGas", {"to": BOB.address})
        assert from_quantity(estimated) == node_estimate(
            gateway, sender="0x" + "00" * 20, to=Address(BOB.address))

    def test_a_non_object_is_invalid_params(self, gateway):
        for params in ([ALICE.address], [[ALICE.address]], [None]):
            assert error_of(gateway, params)["code"] == INVALID_PARAMS

    @pytest.mark.parametrize("name, value", [
        ("from", "0x12"), ("to", 5), ("value", "12"), ("value", [1]),
        ("data", "0xZZ"), ("gas", "0x" + "zz" * 5000), ("gasPrice", {}),
    ], ids=["from", "to", "value-decimal", "value-list", "data", "gas-huge", "gasPrice"])
    def test_a_malformed_field_is_named_never_echoed(self, gateway, name, value):
        call_object = {"from": ALICE.address, "to": BOB.address, name: value}
        error = error_of(gateway, [call_object])
        assert error == {"code": INVALID_PARAMS,
                         "message": f"invalid params for eth_estimateGas: "
                                    f"{name} is malformed"}
