"""Tests for the FLTask contract (task spec, escrow, CIDs, payments)."""

import pytest

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.chain.transaction import encode_call
from repro.contracts import default_registry
from repro.utils.units import ether_to_wei, gwei_to_wei

BUYER = KeyPair.from_label("task-buyer")
OWNER_A = KeyPair.from_label("task-owner-a")
OWNER_B = KeyPair.from_label("task-owner-b")
STRANGER = KeyPair.from_label("task-stranger")
GAS_PRICE = gwei_to_wei(1)
BUDGET = ether_to_wei("0.01")

SPEC = {"task": "digit-classification", "model": [784, 100, 10], "algorithm": "pfnm", "max_owners": 2}


@pytest.fixture()
def env():
    node = EthereumNode(backend=default_registry())
    faucet = Faucet(node)
    for keys in (BUYER, OWNER_A, OWNER_B, STRANGER):
        faucet.drip(keys.address, ether_to_wei(1))
    receipt = node.wait_for_receipt(
        node.deploy_contract(BUYER, "FLTask", [SPEC], value=BUDGET, gas_price=GAS_PRICE)
    )
    return node, str(receipt.contract_address)


def transact(node, keys, address, method, args=None):
    return node.wait_for_receipt(
        node.transact_contract(keys, address, method, args or [], gas_price=GAS_PRICE)
    )


class TestDeployment:
    def test_escrow_held_by_contract(self, env):
        node, address = env
        assert node.get_balance(address) == BUDGET
        assert node.call(address, "budget") == BUDGET

    def test_spec_readable(self, env):
        node, address = env
        assert node.call(address, "spec")["algorithm"] == "pfnm"

    def test_buyer_recorded(self, env):
        node, address = env
        assert node.call(address, "buyer") == BUYER.address

    def test_empty_spec_rejected(self, env):
        node, _ = env
        receipt = node.wait_for_receipt(
            node.deploy_contract(BUYER, "FLTask", [{}], gas_price=GAS_PRICE)
        )
        assert not receipt.status


class TestRegistrationAndCids:
    def test_register_and_upload(self, env):
        node, address = env
        transact(node, OWNER_A, address, "registerOwner")
        receipt = transact(node, OWNER_A, address, "uploadCid", ["QmOwnerA"])
        assert receipt.status
        assert node.call(address, "getAllCids") == ["QmOwnerA"]
        assert node.call(address, "getUploader", [0]) == OWNER_A.address
        assert node.call(address, "getSubmissions") == {OWNER_A.address: "QmOwnerA"}

    def test_unregistered_owner_cannot_upload(self, env):
        node, address = env
        receipt = transact(node, STRANGER, address, "uploadCid", ["QmBad"])
        assert not receipt.status
        assert node.call(address, "cidCount") == 0

    def test_double_registration_rejected(self, env):
        node, address = env
        transact(node, OWNER_A, address, "registerOwner")
        receipt = transact(node, OWNER_A, address, "registerOwner")
        assert not receipt.status

    def test_double_submission_rejected(self, env):
        node, address = env
        transact(node, OWNER_A, address, "registerOwner")
        transact(node, OWNER_A, address, "uploadCid", ["Qm1"])
        receipt = transact(node, OWNER_A, address, "uploadCid", ["Qm2"])
        assert not receipt.status
        assert node.call(address, "cidCount") == 1

    def test_owner_limit_enforced(self, env):
        node, address = env
        transact(node, OWNER_A, address, "registerOwner")
        transact(node, OWNER_B, address, "registerOwner")
        receipt = transact(node, STRANGER, address, "registerOwner")
        assert not receipt.status  # max_owners == 2
        assert node.call(address, "owners") == [OWNER_A.address, OWNER_B.address]


class TestPayments:
    def test_buyer_pays_owner_from_escrow(self, env):
        node, address = env
        transact(node, OWNER_A, address, "registerOwner")
        owner_before = node.get_balance(OWNER_A.address)
        amount = ether_to_wei("0.002")
        receipt = transact(node, BUYER, address, "payOwner", [OWNER_A.address, amount])
        assert receipt.status
        assert node.get_balance(OWNER_A.address) == owner_before + amount
        assert node.call(address, "paidTotal") == amount
        assert node.call(address, "payments") == {OWNER_A.address: amount}

    def test_only_buyer_can_pay(self, env):
        node, address = env
        transact(node, OWNER_A, address, "registerOwner")
        receipt = transact(node, OWNER_A, address, "payOwner", [OWNER_A.address, 1000])
        assert not receipt.status

    def test_cannot_pay_unregistered_address(self, env):
        node, address = env
        receipt = transact(node, BUYER, address, "payOwner", [STRANGER.address, 1000])
        assert not receipt.status

    def test_cannot_exceed_budget(self, env):
        node, address = env
        transact(node, OWNER_A, address, "registerOwner")
        receipt = transact(node, BUYER, address, "payOwner", [OWNER_A.address, BUDGET + 1])
        assert not receipt.status

    def test_cumulative_payments_capped_by_budget(self, env):
        node, address = env
        transact(node, OWNER_A, address, "registerOwner")
        transact(node, BUYER, address, "payOwner", [OWNER_A.address, BUDGET - 100])
        receipt = transact(node, BUYER, address, "payOwner", [OWNER_A.address, 200])
        assert not receipt.status

    def test_deposit_increases_budget(self, env):
        node, address = env
        extra = ether_to_wei("0.005")
        node.wait_for_receipt(node.sign_and_send(
            BUYER, to=address, value=extra, data=encode_call("deposit", []),
            gas_limit=1_000_000, gas_price=GAS_PRICE))
        assert node.call(address, "budget") == BUDGET + extra

    def test_finalize_refunds_unspent_budget(self, env):
        node, address = env
        transact(node, OWNER_A, address, "registerOwner")
        paid = ether_to_wei("0.004")
        transact(node, BUYER, address, "payOwner", [OWNER_A.address, paid])
        buyer_before = node.get_balance(BUYER.address)
        receipt = transact(node, BUYER, address, "finalize")
        assert receipt.status
        refund = BUDGET - paid
        assert node.get_balance(BUYER.address) > buyer_before + refund - ether_to_wei("0.001")
        assert node.call(address, "isFinalized") is True

    def test_no_payment_after_finalize(self, env):
        node, address = env
        transact(node, OWNER_A, address, "registerOwner")
        transact(node, BUYER, address, "finalize")
        receipt = transact(node, BUYER, address, "payOwner", [OWNER_A.address, 100])
        assert not receipt.status

    def test_no_upload_after_finalize(self, env):
        node, address = env
        transact(node, OWNER_A, address, "registerOwner")
        transact(node, BUYER, address, "finalize")
        receipt = transact(node, OWNER_A, address, "uploadCid", ["QmLate"])
        assert not receipt.status

    def test_only_buyer_can_finalize(self, env):
        node, address = env
        receipt = transact(node, OWNER_A, address, "finalize")
        assert not receipt.status
