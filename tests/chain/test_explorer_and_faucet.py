"""Tests for repro.chain.explorer and repro.chain.faucet."""

import pytest

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.chain.explorer import Explorer
from repro.contracts import default_registry
from repro.utils.units import ether_to_wei, gwei_to_wei

ALICE = KeyPair.from_label("alice")
BOB = KeyPair.from_label("bob")
GAS_PRICE = gwei_to_wei(1)


@pytest.fixture()
def populated_node():
    """A node with a deployment, a contract call and a transfer."""
    node = EthereumNode(backend=default_registry())
    faucet = Faucet(node)
    faucet.drip(ALICE.address, ether_to_wei(5))
    faucet.drip(BOB.address, ether_to_wei(5))
    deploy = node.wait_for_receipt(
        node.deploy_contract(ALICE, "CidStorage", [], gas_price=GAS_PRICE)
    )
    node.wait_for_receipt(
        node.transact_contract(BOB, deploy.contract_address, "uploadCid", ["QmX"], gas_price=GAS_PRICE)
    )
    node.wait_for_receipt(
        node.sign_and_send(ALICE, BOB.address, value=123, gas_limit=21_000, gas_price=GAS_PRICE)
    )
    return node


class TestFaucet:
    def test_drip_credits_balance(self):
        node = EthereumNode(backend=default_registry())
        faucet = Faucet(node)
        faucet.drip(ALICE.address, 1000)
        assert node.get_balance(ALICE.address) == 1000

    def test_default_drip_is_one_ether(self):
        node = EthereumNode(backend=default_registry())
        Faucet(node).drip(ALICE.address)
        assert node.get_balance(ALICE.address) == ether_to_wei(1)

    def test_drips_credit_each_address(self):
        node = EthereumNode(backend=default_registry())
        faucet = Faucet(node)
        faucet.drip(ALICE.address, 10)
        faucet.drip(BOB.address, 10)
        assert node.chain.state.balance_of(ALICE.address) == 10
        assert node.chain.state.balance_of(BOB.address) == 10

    def test_a_node_mint_is_write_ahead_logged(self, tmp_path):
        from repro.storage import StorageConfig, StorageEngine, recover_node

        config = StorageConfig(backend="log", directory=str(tmp_path / "s"))
        engine = StorageEngine(config)
        node = EthereumNode(backend=default_registry(), storage=engine)
        node.mint(ALICE.address, 5)
        assert node.get_balance(ALICE.address) == 5
        engine.close()
        revived = recover_node(config, backend=default_registry())
        assert revived.get_balance(ALICE.address) == 5

    def test_non_positive_drip_rejected(self):
        node = EthereumNode(backend=default_registry())
        with pytest.raises(ValueError):
            Faucet(node).drip(ALICE.address, 0)


class TestExplorer:
    def test_all_records_cover_every_transaction(self, populated_node):
        explorer = Explorer(populated_node.chain)
        assert len(explorer.all_records()) == 3

    def test_record_kinds(self, populated_node):
        explorer = Explorer(populated_node.chain)
        kinds = sorted(record.kind for record in explorer.all_records())
        assert kinds == ["contract_deployment", "contract_interaction", "transfer"]

    def test_fee_summary_orders_deployment_heaviest(self, populated_node):
        summary = Explorer(populated_node.chain).fee_summary_by_kind()
        assert summary["contract_deployment"]["mean_fee_wei"] > summary["contract_interaction"]["mean_fee_wei"]
        assert summary["contract_deployment"]["mean_fee_wei"] > summary["transfer"]["mean_fee_wei"]

    def test_transactions_of_account(self, populated_node):
        explorer = Explorer(populated_node.chain)
        alice_records = explorer.transactions_of(ALICE.address)
        assert len(alice_records) == 2  # deployment + transfer

    def test_account_activity(self, populated_node):
        activity = Explorer(populated_node.chain).account_activity(BOB.address)
        assert activity["transactions_sent"] == 1
        assert activity["transactions_received"] == 1
        assert activity["total_fees_paid_wei"] > 0

    def test_chain_statistics(self, populated_node):
        stats = Explorer(populated_node.chain).chain_statistics()
        assert stats["total_transactions"] == 3
        assert stats["failed_transactions"] == 0
        assert stats["total_gas_used"] > 0

    def test_record_lookup_by_hash(self, populated_node):
        explorer = Explorer(populated_node.chain)
        record = explorer.all_records()[0]
        assert explorer.record(record.transaction.hash_hex) is not None
        assert explorer.record("0x" + "ab" * 32) is None

    def test_row_rendering(self, populated_node):
        rows = [record.to_row() for record in Explorer(populated_node.chain).all_records()]
        assert all(row["status"] == "success" for row in rows)
        assert any(row["kind"] == "contract_deployment" for row in rows)
