"""Tests for repro.web.wallet (the MetaMask simulator)."""

import pytest

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.chain.transaction import encode_create
from repro.contracts import default_registry
from repro.utils.units import ether_to_wei, gwei_to_wei
from repro.web.wallet import MetaMaskWallet

ALICE = KeyPair.from_label("wallet-alice")
BOB = KeyPair.from_label("wallet-bob")


@pytest.fixture()
def env():
    node = EthereumNode(backend=default_registry())
    faucet = Faucet(node)
    faucet.drip(ALICE.address, ether_to_wei(2))
    faucet.drip(BOB.address, ether_to_wei(1))
    wallet = MetaMaskWallet(ALICE, node, gas_price_wei=gwei_to_wei(1))
    return node, wallet


class TestBasics:
    def test_address_and_balance(self, env):
        _, wallet = env
        assert wallet.address == ALICE.address
        assert wallet.balance_wei() == ether_to_wei(2)
        assert wallet.balance_eth() == "2.00000000"


class TestPreview:
    def test_preview_estimates_gas_without_spending(self, env):
        node, wallet = env
        balance_before = wallet.balance_wei()
        preview = wallet.preview("Send ETH", BOB.address, value=1000)
        assert preview.estimated_gas >= 21_000
        assert wallet.balance_wei() == balance_before
        assert node.block_number == 0  # nothing mined

    def test_send_verifies_one_signature_not_two(self, env, monkeypatch):
        # The draft behind the gas estimate is never broadcast, so it is not
        # signed and costs no signature verify: only the transaction that is
        # sent gets one (block production then hits its memo).
        from repro.chain import keys

        calls = []
        real = keys.verify_signature

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(keys, "verify_signature", counting)
        _, wallet = env
        wallet.preview("Deploy CidStorage", None, data=encode_create("CidStorage", []))
        assert calls == []
        assert wallet.deploy_contract("CidStorage").status
        assert len(calls) == 1


class TestSendFlow:
    def test_send_charges_the_fee_and_records_activity(self, env):
        _, wallet = env
        receipt = wallet.deploy_contract("CidStorage")
        assert receipt.status
        assert wallet.balance_wei() == ether_to_wei(2) - receipt.fee_wei
        assert len(wallet.activity) == 1
        assert wallet.activity[0].receipt.fee_wei == receipt.fee_wei

    def test_deploy_and_call_contract(self, env):
        node, wallet = env
        deployment = wallet.deploy_contract("CidStorage", [])
        assert deployment.status
        address = str(deployment.contract_address)
        call = wallet.call_contract(address, "uploadCid", ["QmWallet"])
        assert call.status
        assert wallet.read_contract(address, "getAllCids") == ["QmWallet"]

    def test_activity_keeps_each_description_in_order(self, env):
        _, wallet = env
        wallet.deploy_contract("CidStorage", description="first")
        wallet.deploy_contract("CidStorage", description="second")
        assert [entry.description for entry in wallet.activity] == ["first", "second"]
        assert all(entry.receipt.status for entry in wallet.activity)

    def test_read_contract_is_free(self, env):
        _, wallet = env
        deployment = wallet.deploy_contract("CidStorage", [])
        balance_before = wallet.balance_wei()
        wallet.read_contract(str(deployment.contract_address), "cidCount")
        assert wallet.balance_wei() == balance_before
