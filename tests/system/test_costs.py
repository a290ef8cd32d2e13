"""Tests for repro.system.costs (the Fig. 5 gas analysis)."""

import pytest

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.contracts import default_registry
from repro.system.costs import build_gas_cost_report, estimate_onchain_model_storage_gas
from repro.utils.units import ether_to_wei, gwei_to_wei

BUYER = KeyPair.from_label("cost-buyer")
OWNER = KeyPair.from_label("cost-owner")
GAS_PRICE = gwei_to_wei(1)


@pytest.fixture()
def populated_chain():
    node = EthereumNode(backend=default_registry())
    faucet = Faucet(node)
    faucet.drip(BUYER.address, ether_to_wei(1))
    faucet.drip(OWNER.address, ether_to_wei(1))
    spec = {"task": "digits", "model": [784, 100, 10], "max_owners": 5}
    deployment = node.wait_for_receipt(
        node.deploy_contract(BUYER, "FLTask", [spec], value=ether_to_wei("0.01"), gas_price=GAS_PRICE)
    )
    address = deployment.contract_address
    node.wait_for_receipt(node.transact_contract(OWNER, address, "registerOwner", [], gas_price=GAS_PRICE))
    node.wait_for_receipt(
        node.transact_contract(OWNER, address, "uploadCid", ["Qm" + "a" * 44], gas_price=GAS_PRICE)
    )
    node.wait_for_receipt(
        node.transact_contract(
            BUYER, address, "payOwner", [OWNER.address, ether_to_wei("0.001")], gas_price=GAS_PRICE
        )
    )
    return node.chain


class TestGasCostReport:
    def test_categories_present(self, populated_chain):
        report = build_gas_cost_report(populated_chain)
        assert {"deployment", "cid_submission", "payment", "registration"} <= set(report.rows)

    def test_fig5_ordering_holds(self, populated_chain):
        report = build_gas_cost_report(populated_chain)
        assert report.ordering_holds()
        deployment = report.category("deployment")
        cid = report.category("cid_submission")
        payment = report.category("payment")
        assert deployment.mean_fee_wei > 5 * cid.mean_fee_wei
        assert 0.1 < cid.mean_fee_wei / payment.mean_fee_wei < 10

    def test_deployment_fee_magnitude_matches_paper(self, populated_chain):
        # Fig. 5b: deployment around 0.002 ETH (at ~1 gwei in the simulation).
        report = build_gas_cost_report(populated_chain)
        fee_eth = report.category("deployment").mean_fee_wei / 1e18
        assert 0.0005 < fee_eth < 0.01

    def test_transactions_listing(self, populated_chain):
        report = build_gas_cost_report(populated_chain)
        assert len(report.transactions) == 4
        assert all("category" in row for row in report.transactions)

    def test_ordering_check_requires_all_categories(self, populated_chain):
        report = build_gas_cost_report(populated_chain)
        del report.rows["payment"]
        assert not report.ordering_holds()

    def test_row_serialization(self, populated_chain):
        payload = build_gas_cost_report(populated_chain).to_dict()
        assert "deployment" in payload
        assert "mean_fee_eth" in payload["deployment"]


class TestOnChainStorageAblation:
    def test_cid_storage_orders_of_magnitude_cheaper(self, populated_chain):
        estimate = estimate_onchain_model_storage_gas(model_bytes=317 * 1024)
        assert estimate["storage_slots"] == (317 * 1024 + 31) // 32
        assert estimate["gas_ratio"] > 1000
        assert estimate["cid_storage_gas"] < 100_000
