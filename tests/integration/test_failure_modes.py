"""Failure-injection tests: the system must fail loudly and recover cleanly."""

import pytest

from repro.errors import (
    BlockNotFoundError,
    ContractRevert,
    InsufficientFundsError,
    SerializationError,
)
from repro.chain import EthereumNode, Faucet, KeyPair
from repro.contracts import default_registry
from repro.ipfs import IpfsNode, Swarm
from repro.ml import MLP, serialize_model
from repro.utils.units import ether_to_wei, gwei_to_wei
from tests.oracles import deserialize_model

GAS_PRICE = gwei_to_wei(1)


class TestChainFailures:
    def test_broke_owner_cannot_submit_cid(self):
        """An owner with no ETH cannot pay gas for the CID transaction."""
        node = EthereumNode(backend=default_registry())
        faucet = Faucet(node)
        rich = KeyPair.from_label("rich")
        broke = KeyPair.from_label("broke")
        faucet.drip(rich.address, ether_to_wei(1))
        deployment = node.wait_for_receipt(
            node.deploy_contract(rich, "CidStorage", [], gas_price=GAS_PRICE)
        )
        with pytest.raises(InsufficientFundsError):
            node.transact_contract(
                broke, deployment.contract_address, "uploadCid", ["QmX"], gas_price=GAS_PRICE
            )

    def test_failed_transaction_does_not_poison_later_ones(self):
        node = EthereumNode(backend=default_registry())
        faucet = Faucet(node)
        keys = KeyPair.from_label("retrier")
        faucet.drip(keys.address, ether_to_wei(1))
        deployment = node.wait_for_receipt(
            node.deploy_contract(keys, "CidStorage", [], gas_price=GAS_PRICE)
        )
        address = deployment.contract_address
        # First attempt reverts (empty CID), second succeeds.
        failed = node.wait_for_receipt(
            node.transact_contract(keys, address, "uploadCid", [""], gas_price=GAS_PRICE)
        )
        assert not failed.status
        ok = node.wait_for_receipt(
            node.transact_contract(keys, address, "uploadCid", ["QmRetry"], gas_price=GAS_PRICE)
        )
        assert ok.status
        assert node.call(address, "getAllCids") == ["QmRetry"]

    def test_escrow_cannot_be_drained_by_non_buyer(self):
        node = EthereumNode(backend=default_registry())
        faucet = Faucet(node)
        buyer = KeyPair.from_label("escrow-buyer")
        attacker = KeyPair.from_label("escrow-attacker")
        faucet.drip(buyer.address, ether_to_wei(1))
        faucet.drip(attacker.address, ether_to_wei(1))
        deployment = node.wait_for_receipt(
            node.deploy_contract(
                buyer, "FLTask", [{"task": "t", "max_owners": 3}],
                value=ether_to_wei("0.01"), gas_price=GAS_PRICE,
            )
        )
        address = deployment.contract_address
        node.wait_for_receipt(
            node.transact_contract(attacker, address, "registerOwner", [], gas_price=GAS_PRICE)
        )
        theft = node.wait_for_receipt(
            node.transact_contract(
                attacker, address, "payOwner", [attacker.address, ether_to_wei("0.01")],
                gas_price=GAS_PRICE,
            )
        )
        assert not theft.status
        assert node.get_balance(address) == ether_to_wei("0.01")


class TestIpfsFailures:
    def test_missing_model_cid_fails_retrieval(self):
        swarm = Swarm()
        buyer = IpfsNode("buyer", swarm)
        isolated = IpfsNode("isolated")  # never joins the swarm
        payload = serialize_model(MLP((10, 5, 2), seed=0))
        result = isolated.add_bytes(payload)
        with pytest.raises(BlockNotFoundError):
            buyer.cat(result.cid)

    def test_corrupted_model_payload_detected(self):
        payload = bytearray(serialize_model(MLP((10, 5, 2), seed=0)))
        payload[-1] ^= 0xFF
        payload = payload[:-3]  # truncate as well
        with pytest.raises(SerializationError):
            deserialize_model(bytes(payload))

    def test_block_tampering_detected_on_insert(self):
        from repro.errors import InvalidCidError
        from repro.ipfs.blockstore import BlockStore
        from repro.ipfs.cid import CID, RAW_CODEC

        store = BlockStore()
        cid = CID.from_bytes_payload(b"honest block", version=1, codec=RAW_CODEC)
        with pytest.raises(InvalidCidError):
            store.put(cid, b"tampered block")


class TestContractRevertPropagation:
    def test_read_of_invalid_index_raises_to_python_caller(self):
        node = EthereumNode(backend=default_registry())
        faucet = Faucet(node)
        keys = KeyPair.from_label("reader")
        faucet.drip(keys.address, ether_to_wei(1))
        deployment = node.wait_for_receipt(
            node.deploy_contract(keys, "CidStorage", [], gas_price=GAS_PRICE)
        )
        with pytest.raises(ContractRevert):
            node.call(deployment.contract_address, "getCid", [5])
