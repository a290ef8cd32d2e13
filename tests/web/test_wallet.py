"""Tests for repro.web.wallet (the MetaMask simulator)."""

import pytest

from repro.errors import WalletError
from repro.chain import EthereumNode, Faucet, KeyPair
from repro.contracts import default_registry
from repro.utils.units import ether_to_wei, gwei_to_wei
from repro.web.wallet import MetaMaskWallet, approve_all, reject_all

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
        assert preview.max_fee_wei == preview.estimated_gas * wallet.gas_price_wei
        assert wallet.balance_wei() == balance_before
        assert node.block_number == 0  # nothing mined

    def test_send_verifies_one_signature_not_two(self, env, monkeypatch):
        # The draft behind the gas estimate is never broadcast, so it is not
        # signed and costs no Schnorr verify: only the transaction that is
        # sent gets one (block production then hits its memo).
        from repro.chain import keys

        calls = []
        real = keys.verify_signature

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(keys, "verify_signature", counting)
        _, wallet = env
        wallet.preview("Send ETH", BOB.address, value=1000)
        assert calls == []
        assert wallet.send_ether(BOB.address, 1000).status
        assert len(calls) == 1

    def test_preview_to_dict_has_confirmation_fields(self, env):
        _, wallet = env
        info = wallet.preview("Send ETH", BOB.address, value=1000).to_dict()
        assert {"from", "to", "value_eth", "max_fee_eth", "total_eth"} <= set(info)


class TestSendFlow:
    def test_send_ether_updates_balances_and_activity(self, env):
        node, wallet = env
        receipt = wallet.send_ether(BOB.address, ether_to_wei("0.5"))
        assert receipt.status
        assert node.get_balance(BOB.address) == ether_to_wei("1.5")
        assert len(wallet.activity) == 1
        assert wallet.total_fees_paid_wei() == receipt.fee_wei

    def test_rejection_policy_blocks_transaction(self, env):
        node, wallet = env
        wallet.confirmation_policy = reject_all
        with pytest.raises(WalletError):
            wallet.send_ether(BOB.address, 1000)
        assert node.get_balance(BOB.address) == ether_to_wei(1)

    def test_policy_receives_preview(self, env):
        _, wallet = env
        seen = {}

        def policy(preview):
            seen["description"] = preview.description
            return True

        wallet.confirmation_policy = policy
        wallet.send_ether(BOB.address, 10, description="Pay the owner")
        assert seen["description"] == "Pay the owner"

    def test_deploy_and_call_contract(self, env):
        node, wallet = env
        deployment = wallet.deploy_contract("CidStorage", [])
        assert deployment.status
        address = str(deployment.contract_address)
        call = wallet.call_contract(address, "uploadCid", ["QmWallet"])
        assert call.status
        assert wallet.read_contract(address, "getAllCids") == ["QmWallet"]

    def test_activity_summary_lists_descriptions(self, env):
        _, wallet = env
        wallet.send_ether(BOB.address, 10, description="first")
        wallet.send_ether(BOB.address, 10, description="second")
        summary = wallet.activity_summary()
        assert [entry["description"] for entry in summary] == ["first", "second"]
        assert all(entry["status"] for entry in summary)

    def test_read_contract_is_free(self, env):
        _, wallet = env
        deployment = wallet.deploy_contract("CidStorage", [])
        balance_before = wallet.balance_wei()
        wallet.read_contract(str(deployment.contract_address), "cidCount")
        assert wallet.balance_wei() == balance_before

    def test_approve_all_policy(self):
        assert approve_all(None) is True
        assert reject_all(None) is False
