"""Tests for repro.chain.chain (block production) and repro.chain.node (API)."""

import pytest

from repro.errors import BlockValidationError, UnknownBlockError, UnknownTransactionError
from repro.chain import EthereumNode, Faucet, KeyPair
from repro.chain.account import Address
from repro.chain.block import (
    block_from_record,
    compute_receipts_root,
    compute_transactions_root,
    make_genesis_block,
)
from repro.chain.chain import ChainConfig
from repro.chain.events import LogFilter
from repro.chain.transaction import Transaction
from repro.contracts import default_registry
from repro.utils.units import ether_to_wei, gwei_to_wei

ALICE = KeyPair.from_label("alice")
BOB = KeyPair.from_label("bob")
GAS_PRICE = gwei_to_wei(1)


@pytest.fixture()
def funded_node():
    node = EthereumNode(config=ChainConfig(), backend=default_registry())
    faucet = Faucet(node)
    faucet.drip(ALICE.address, ether_to_wei(5))
    faucet.drip(BOB.address, ether_to_wei(5))
    return node


class TestGenesisAndBlocks:
    def test_genesis_exists(self, funded_node):
        genesis = funded_node.get_block(0)
        assert genesis.number == 0
        assert funded_node.block_number == 0

    def test_unknown_block_raises(self, funded_node):
        with pytest.raises(UnknownBlockError):
            funded_node.get_block(99)

    def test_block_lookup_by_hash(self, funded_node):
        block = funded_node.mine(1)[0]
        assert funded_node.get_block(block.hash).number == block.number

    def test_empty_block_production_advances_clock_one_slot(self, funded_node):
        start = funded_node.clock.now
        funded_node.mine(1)
        assert funded_node.clock.now == start + funded_node.chain.config.slot_seconds

    def test_blocks_link_to_parents(self, funded_node):
        funded_node.mine(3)
        blocks = list(funded_node.chain.iter_blocks())
        for parent, child in zip(blocks, blocks[1:]):
            assert child.header.parent_hash == parent.hash


class TestTransactionLifecycle:
    def test_transfer_included_and_balances_updated(self, funded_node):
        tx_hash = funded_node.sign_and_send(
            ALICE, BOB.address, value=ether_to_wei(1), gas_limit=21_000, gas_price=GAS_PRICE
        )
        receipt = funded_node.wait_for_receipt(tx_hash)
        assert receipt.status
        assert funded_node.get_balance(BOB.address) == ether_to_wei(6)
        assert funded_node.get_transaction_count(ALICE.address) == 1

    def test_receipt_records_block_position(self, funded_node):
        tx_hash = funded_node.sign_and_send(
            ALICE, BOB.address, value=1, gas_limit=21_000, gas_price=GAS_PRICE
        )
        receipt = funded_node.wait_for_receipt(tx_hash)
        assert receipt.block_number == 1
        assert receipt.transaction_index == 0
        assert receipt.block_hash == funded_node.get_block(1).hash

    def test_unknown_receipt_raises(self, funded_node):
        with pytest.raises(UnknownTransactionError):
            funded_node.get_receipt("0x" + "00" * 32)

    def test_wait_for_receipt_gives_up_after_max_blocks(self, funded_node):
        """A nonce gap is never mined: the wait mines its 25 blocks, then raises."""
        tx = Transaction(sender=Address(ALICE.address), to=Address(BOB.address), value=1,
                         nonce=1, gas_limit=21_000, gas_price=GAS_PRICE).sign(ALICE)
        tx_hash = funded_node.send_transaction(tx)
        with pytest.raises(UnknownTransactionError, match="not included after 25 blocks"):
            funded_node.wait_for_receipt(tx_hash)
        assert funded_node.block_number == 25
        assert funded_node.get_transaction(tx_hash).nonce == 1

    def test_pending_nonce_accounts_for_queued_transactions(self, funded_node):
        funded_node.sign_and_send(ALICE, BOB.address, value=1, gas_price=GAS_PRICE)
        assert funded_node.pending_nonce(ALICE.address) == 1
        funded_node.sign_and_send(ALICE, BOB.address, value=2, gas_price=GAS_PRICE)
        assert funded_node.pending_nonce(ALICE.address) == 2

    def test_multiple_queued_transactions_included_in_one_block(self, funded_node):
        hashes = [
            funded_node.sign_and_send(ALICE, BOB.address, value=i + 1, gas_price=GAS_PRICE)
            for i in range(3)
        ]
        funded_node.mine(1)
        for tx_hash in hashes:
            assert funded_node.get_receipt(tx_hash).status
        assert funded_node.get_block(1).header.gas_used == 3 * 21_000

    def test_get_transaction_returns_pending_and_included(self, funded_node):
        tx_hash = funded_node.sign_and_send(ALICE, BOB.address, value=1, gas_price=GAS_PRICE)
        assert funded_node.get_transaction(tx_hash).value == 1
        funded_node.mine(1)
        assert funded_node.get_transaction(tx_hash).value == 1


class TestContractsViaNode:
    def test_deploy_call_and_read(self, funded_node):
        deploy_hash = funded_node.deploy_contract(ALICE, "CidStorage", [], gas_price=GAS_PRICE)
        deployment = funded_node.wait_for_receipt(deploy_hash)
        address = deployment.contract_address
        assert funded_node.is_contract(address)

        call_hash = funded_node.transact_contract(
            BOB, address, "uploadCid", ["QmNodeTest"], gas_price=GAS_PRICE
        )
        receipt = funded_node.wait_for_receipt(call_hash)
        assert receipt.status
        assert funded_node.call(address, "cidCount") == 1
        assert funded_node.call(address, "getCid", [0]) == "QmNodeTest"

    def test_event_logs_are_filterable(self, funded_node):
        deploy_hash = funded_node.deploy_contract(ALICE, "CidStorage", [], gas_price=GAS_PRICE)
        address = funded_node.wait_for_receipt(deploy_hash).contract_address
        call_hash = funded_node.transact_contract(
            BOB, address, "uploadCid", ["QmEvent"], gas_price=GAS_PRICE
        )
        funded_node.wait_for_receipt(call_hash)
        logs = funded_node.get_logs(LogFilter(address=address, event_name="CidUploaded"))
        assert len(logs) == 1
        assert logs[0].args["cid"] == "QmEvent"
        assert funded_node.get_logs(LogFilter(event_name="DoesNotExist")) == []

    def test_estimate_gas_close_to_actual(self, funded_node):
        from repro.chain.account import Address
        from repro.chain.transaction import Transaction, encode_create

        tx = Transaction(
            sender=Address(ALICE.address),
            to=None,
            data=encode_create("CidStorage", []),
            nonce=funded_node.pending_nonce(ALICE.address),
            gas_limit=3_000_000,
            gas_price=GAS_PRICE,
        ).sign(ALICE)
        estimate = funded_node.estimate_gas(tx)
        deploy_hash = funded_node.send_transaction(tx)
        actual = funded_node.wait_for_receipt(deploy_hash).gas_used
        assert actual <= estimate <= int(actual * 1.25)


class TestChainStatistics:
    def test_clock_advances_with_waits(self, funded_node):
        before = funded_node.clock.now
        tx_hash = funded_node.sign_and_send(ALICE, BOB.address, value=1, gas_price=GAS_PRICE)
        funded_node.wait_for_receipt(tx_hash)
        assert funded_node.clock.now > before

    def test_chain_id_is_sepolia(self, funded_node):
        assert funded_node.chain_id == 11155111


def mined_transfer(node):
    """Send Alice -> Bob one ether and return the block that includes it."""
    node.sign_and_send(ALICE, BOB.address, value=ether_to_wei(1),
                       gas_limit=21_000, gas_price=GAS_PRICE)
    return node.mine(1)[0]


class TestBlockRecords:
    def test_genesis_is_deterministic_in_its_timestamp(self):
        assert make_genesis_block().hash == make_genesis_block().hash
        assert make_genesis_block(timestamp=5.0).hash != make_genesis_block().hash
        assert make_genesis_block().header.parent_hash == "0x" + "00" * 32

    def test_header_roots_commit_to_transactions_and_receipts(self, funded_node):
        block = mined_transfer(funded_node)
        assert block.header.transactions_root == compute_transactions_root(block.transactions)
        assert block.header.receipts_root == compute_receipts_root(block.receipts)
        assert compute_transactions_root([]) != block.header.transactions_root

    def test_record_round_trips_to_the_same_hash(self, funded_node):
        block = mined_transfer(funded_node)
        rebuilt = block_from_record(block.to_record())
        assert rebuilt.hash == block.hash
        assert rebuilt.transaction_hashes() == block.transaction_hashes()
        assert [r.status for r in rebuilt.receipts] == [r.status for r in block.receipts]

    def test_tampered_record_rebuilds_to_another_hash(self, funded_node):
        record = mined_transfer(funded_node).to_record()
        record["header"]["gas_used"] += 1
        assert block_from_record(record).hash != record["header"]["hash"]

    def test_replay_on_a_twin_chain_reproduces_the_block(self, funded_node):
        twin = EthereumNode(config=ChainConfig(), backend=default_registry())
        Faucet(twin).drip(ALICE.address, ether_to_wei(5))
        Faucet(twin).drip(BOB.address, ether_to_wei(5))
        block = mined_transfer(funded_node)
        assert not twin.chain.knows_block(block.hash)
        replayed = twin.chain.replay_block(block.to_record())
        assert replayed.hash == block.hash
        assert twin.chain.knows_block(block.hash)
        assert twin.get_balance(BOB.address) == funded_node.get_balance(BOB.address)

    def test_replay_that_diverges_is_refused(self, funded_node):
        twin = EthereumNode(config=ChainConfig(), backend=default_registry())
        Faucet(twin).drip(ALICE.address, ether_to_wei(5))
        record = mined_transfer(funded_node).to_record()
        record["header"]["timestamp"] += 1.0  # the recorded hash no longer matches
        with pytest.raises(BlockValidationError, match="diverged"):
            twin.chain.replay_block(record)
        assert twin.block_number == 0
