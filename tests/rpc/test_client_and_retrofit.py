"""Tests for the MarketplaceClient SDK and the call-site retrofit.

The load-bearing claims:

* the typed sub-clients (eth/ipfs/oflw3) speak real JSON-RPC envelopes and
  decode results back into library objects;
* error envelopes rehydrate into the original ReproError subclasses;
* the wallet / DApp / backend layers route their stack access through the
  gateway (the gateway's metrics see their traffic);
* batches resolve per-call, including mixed success/failure.
"""

import pytest

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.chain.account import Address
from repro.chain.events import LogFilter, LogPage
from repro.chain.transaction import Transaction
from repro.contracts import default_registry
from repro.errors import ContractNotFoundError, RpcError, UnknownTransactionError, WebError
from repro.ipfs import IpfsNode, Swarm
from repro.ml import TrainingConfig
from repro.rpc import JsonRpcGateway, MarketplaceClient
from repro.utils.units import ether_to_wei, gwei_to_wei
from repro.web import BuyerBackend, BuyerDApp, OwnerDApp
from repro.web.wallet import MetaMaskWallet

ALICE = KeyPair.from_label("rpc-sdk-alice")


@pytest.fixture()
def stack():
    node = EthereumNode(backend=default_registry())
    Faucet(node).drip(ALICE.address, ether_to_wei(5))
    swarm = Swarm()
    ipfs = IpfsNode("sdk-node", swarm)
    gateway = JsonRpcGateway(node=node, swarm=swarm).serve_ipfs_node(ipfs)
    client = MarketplaceClient(gateway, default_ipfs_node=ipfs.name)
    return node, ipfs, client


class TestEthClient:
    def test_quantities_decode_to_ints(self, stack):
        node, _, client = stack
        assert client.eth.chain_id == 11155111
        assert client.eth.block_number == 0
        assert client.eth.get_balance(ALICE.address) == ether_to_wei(5)

    def test_wait_for_receipt_round_trips_the_full_receipt(self, stack):
        node, _, client = stack
        wallet = MetaMaskWallet(ALICE, node, gas_price_wei=gwei_to_wei(1))
        receipt = wallet.deploy_contract("CidStorage", [])
        # The reconstructed receipt carries everything the direct API had.
        assert receipt.status
        assert receipt.contract_address is not None
        assert receipt.fee_wei == receipt.gas_used * receipt.gas_price
        call = wallet.call_contract(str(receipt.contract_address), "uploadCid", ["QmSdk"])
        assert call.return_value == 0  # cid_index survives the JSON round trip

    def test_rehydrated_errors_keep_their_class(self, stack):
        _, _, client = stack
        with pytest.raises(ContractNotFoundError):
            client.eth.call("0x" + "11" * 20, "anything")

    def test_unknown_methods_raise_generic_rpc_error(self, stack):
        _, _, client = stack
        with pytest.raises(RpcError) as excinfo:
            client.call("made_up_method")
        assert excinfo.value.code == -32601

    def test_an_error_without_a_class_keeps_its_code_and_data(self, stack):
        _, _, client = stack
        from repro.rpc import JsonRpcError

        def refuse():
            raise JsonRpcError(-32050, "not today", data={"retry": False})

        client.gateway.register("probe_refuse", refuse)
        with pytest.raises(RpcError) as excinfo:
            client.call("probe_refuse")
        assert type(excinfo.value) is RpcError
        assert (str(excinfo.value), excinfo.value.code, excinfo.value.data) \
            == ("not today", -32050, {"retry": False})

    def test_an_unknown_error_class_falls_back_to_rpc_error(self, stack):
        _, _, client = stack
        from repro.rpc import SERVER_ERROR, JsonRpcError

        def fail():
            raise JsonRpcError(SERVER_ERROR, "gone", data={"error_class": "NoSuchError"})

        client.gateway.register("probe_fail", fail)
        with pytest.raises(RpcError) as excinfo:
            client.call("probe_fail")
        assert type(excinfo.value) is RpcError
        assert excinfo.value.code == SERVER_ERROR
        assert excinfo.value.data == {"error_class": "NoSuchError"}

    def test_for_node_serves_the_chain_alone(self):
        node = EthereumNode(backend=default_registry())
        Faucet(node).drip(ALICE.address, ether_to_wei(2))
        client = MarketplaceClient.for_node(node)
        assert client.gateway.eth.node is node
        assert client.eth.get_balance(ALICE.address) == ether_to_wei(2)
        assert not [name for name in client.gateway.methods()
                    if name.startswith(("ipfs_", "oflw3_"))]


class TestEthClientReads:
    """``get_logs`` in both forms, and a receipt that never comes."""

    @pytest.fixture()
    def uploads(self, stack):
        node, _, client = stack
        wallet = MetaMaskWallet(ALICE, node, gas_price_wei=gwei_to_wei(1), rpc=client)
        contract = str(wallet.deploy_contract("CidStorage", []).contract_address)
        for cid in ("QmLogOne", "QmLogTwo", "QmLogThree"):
            wallet.call_contract(contract, "uploadCid", [cid])
        return client, contract

    def test_get_logs_decodes_every_matching_log(self, uploads):
        client, contract = uploads
        logs = client.eth.get_logs(LogFilter(address=Address(contract),
                                             event_name="CidUploaded"))
        assert [log.args["cid"] for log in logs] == ["QmLogOne", "QmLogTwo", "QmLogThree"]
        assert {str(log.address) for log in logs} == {contract}
        assert client.eth.get_logs(LogFilter(event_name="NoSuchEvent")) == []

    def test_get_logs_with_a_limit_pages_by_cursor(self, uploads):
        client, _ = uploads
        criteria = LogFilter(event_name="CidUploaded")
        first = client.eth.get_logs(criteria, limit=2)
        assert isinstance(first, LogPage) and first.next_cursor is not None
        second = client.eth.get_logs(criteria, limit=2, cursor=first.next_cursor)
        assert [log.args["cid"] for log in [*first, *second]] == \
            ["QmLogOne", "QmLogTwo", "QmLogThree"]
        assert second.next_cursor is None

    def test_wait_for_receipt_gives_up_after_max_blocks(self, stack):
        node, _, client = stack
        gap = Transaction(sender=Address(ALICE.address), to=Address("0x" + "22" * 20),
                          value=1, nonce=1, gas_limit=21_000, gas_price=10**9).sign(ALICE)
        tx_hash = client.eth.send_transaction(gap)
        with pytest.raises(UnknownTransactionError, match="not included after 25 blocks"):
            client.eth.wait_for_receipt(tx_hash)
        assert client.eth.block_number == 25


class TestIpfsClient:
    def test_add_cat_stat_pin_round_trip(self, stack):
        _, ipfs, client = stack
        payload = b"one-shot federated learning" * 40
        added = client.ipfs.add(payload)
        assert added["cid"].startswith("Qm")
        assert added["size"] == len(payload)
        assert client.ipfs.cat(added["cid"]) == payload
        stat = client.call("ipfs_stat", added["cid"])
        assert stat["blocks"] == added["num_blocks"]
        assert client.call("ipfs_pin", added["cid"]) == {"pinned": added["cid"]}

    def test_node_selection_by_name(self, stack):
        node, ipfs, client = stack
        other = IpfsNode("sdk-node-2", ipfs.swarm)
        added = client.bound_to_ipfs(other).ipfs.add(b"routed")
        assert other.blockstore.has(added["cid"])
        assert not ipfs.blockstore.has(added["cid"])


class TestBatch:
    def test_batch_amortizes_and_resolves_per_call(self, stack):
        _, _, client = stack
        with client.batch() as batch:
            balance = batch.add("eth_getBalance", ALICE.address)
            height = batch.add("eth_blockNumber")
            broken = batch.add("eth_noSuchMethod")
        assert balance.result() == hex(ether_to_wei(5))
        assert height.result() == "0x0"
        with pytest.raises(RpcError):
            broken.result()

    def test_unexecuted_batch_result_raises(self, stack):
        _, _, client = stack
        handle = client.batch().add("eth_blockNumber")
        with pytest.raises(RpcError):
            handle.result()


class TestRetrofit:
    """The wallet/DApp/backend layers all cross the gateway."""

    def test_wallet_traffic_is_visible_in_gateway_metrics(self, stack):
        node, _, client = stack
        wallet = MetaMaskWallet(ALICE, node, gas_price_wei=gwei_to_wei(1), rpc=client)
        before = client.gateway.metrics.snapshot()["requests_total"]
        wallet.balance_wei()
        receipt = wallet.deploy_contract("CidStorage", [])
        wallet.read_contract(str(receipt.contract_address), "cidCount")
        snapshot = client.gateway.metrics.snapshot()
        assert snapshot["requests_total"] > before
        for method in ("eth_getBalance", "eth_sendRawTransaction",
                       "eth_getTransactionReceipt", "eth_estimateGas",
                       "eth_call", "evm_mine"):
            assert snapshot["by_method"].get(method, 0) > 0, method

    def test_full_dapp_exchange_through_one_gateway(self, tiny_client_datasets, tiny_split):
        _, test = tiny_split
        node = EthereumNode(backend=default_registry())
        faucet = Faucet(node)
        swarm = Swarm()
        gateway = JsonRpcGateway(node=node, swarm=swarm)

        buyer_keys = KeyPair.from_label("rpc-retrofit-buyer")
        faucet.drip(buyer_keys.address, ether_to_wei(1))
        buyer_ipfs = IpfsNode("retrofit-buyer", swarm)
        buyer_wallet = MetaMaskWallet(
            buyer_keys, node, gas_price_wei=gwei_to_wei(1),
            rpc=MarketplaceClient(gateway, default_ipfs_node=buyer_ipfs.name))
        backend = BuyerBackend(buyer_wallet, buyer_ipfs, test, aggregator_name="mean")
        buyer = BuyerDApp(backend)

        owner_keys = KeyPair.from_label("rpc-retrofit-owner")
        faucet.drip(owner_keys.address, ether_to_wei("0.05"))
        owner_ipfs = IpfsNode("retrofit-owner", swarm)
        owner_wallet = MetaMaskWallet(
            owner_keys, node, gas_price_wei=gwei_to_wei(1),
            rpc=MarketplaceClient(gateway, default_ipfs_node=owner_ipfs.name))
        owner = OwnerDApp(owner_wallet, owner_ipfs)
        swarm.connect_all()

        spec = {"task": "digits", "model": [784, 100, 10], "max_owners": 2}
        deployment = buyer.deploy_task(spec, ether_to_wei("0.01"))
        owner.find_task(deployment["contract_address"])
        owner.register()
        owner.train_local_model(tiny_client_datasets[0],
                                config=TrainingConfig(epochs=1, seed=0), seed=0)
        owner.upload_model()
        owner.submit_cid()
        listing = buyer.download_cids()
        assert len(listing["cids"]) == 1
        buyer.retrieve_models()
        aggregation = buyer.aggregate()
        assert 0.0 <= aggregation["aggregate_accuracy"] <= 1.0

        by_method = gateway.metrics.snapshot()["by_method"]
        # Chain writes, chain reads, IPFS both ways, and the oflw3 app calls
        # all crossed the one gateway.
        for method in ("eth_sendRawTransaction", "eth_call", "ipfs_add", "ipfs_cat",
                       "oflw3_deployTask", "oflw3_taskCids", "oflw3_retrieveModels",
                       "oflw3_aggregate"):
            assert by_method.get(method, 0) > 0, method

    def test_backend_web_errors_rehydrate_through_oflw3(self, stack):
        node, ipfs, client = stack
        wallet = MetaMaskWallet(ALICE, node, gas_price_wei=gwei_to_wei(1), rpc=client)
        import numpy as np
        from repro.data.dataset import Dataset

        test = Dataset(features=np.zeros((4, 784)), labels=np.zeros(4, dtype=int),
                       num_classes=10)
        backend = BuyerBackend(wallet, ipfs, test)
        dapp = BuyerDApp(backend)
        dapp.task_address = "0xdoesnotexist"
        with pytest.raises(WebError):
            dapp.task_status()


class TestMarketplaceEnvironmentGateway:
    def test_build_environment_shares_one_gateway(self):
        from repro.system import quick_config
        from repro.system.orchestrator import build_environment

        env = build_environment(quick_config(num_owners=2, num_samples=400,
                                             local_epochs=1, seed=5))
        assert env.gateway is not None
        clients = [env.buyer.wallet.rpc] + [owner.wallet.rpc for owner in env.owners]
        assert all(c.gateway is env.gateway for c in clients)
        assert env.buyer.backend.rpc.gateway is env.gateway


class TestReviewRegressions:
    """Fixes applied from review: error fidelity, tail cursors, params checks."""

    def test_a_web_error_class_survives_the_oflw3_path(self, stack, tiny_split, monkeypatch):
        from repro.errors import RouteNotFoundError

        node, ipfs, client = stack
        _, test = tiny_split
        wallet = MetaMaskWallet(ALICE, node, gas_price_wei=gwei_to_wei(1), rpc=client)

        def refuse(*args, **kwargs):
            raise RouteNotFoundError("refused under the backend")

        monkeypatch.setattr(wallet, "deploy_contract", refuse)
        backend = BuyerBackend(wallet, ipfs, test)
        dapp = BuyerDApp(backend)
        with pytest.raises(RouteNotFoundError, match="refused under the backend"):
            dapp.deploy_task({"task": "t", "model": [784, 100, 10]},
                             ether_to_wei("0.001"))

    def test_full_page_at_stream_end_still_returns_a_cursor(self, stack):
        node, _, client = stack
        wallet = MetaMaskWallet(ALICE, node, gas_price_wei=gwei_to_wei(1), rpc=client)
        receipt = wallet.deploy_contract("CidStorage", [])
        contract = str(receipt.contract_address)
        wallet.call_contract(contract, "uploadCid", ["QmTail0"])
        from repro.chain.events import LogFilter

        log_filter = LogFilter(event_name="CidUploaded")
        page = node.get_logs_page(log_filter, limit=1)  # fills exactly at tip
        assert page.next_cursor is not None
        wallet.call_contract(contract, "uploadCid", ["QmTail1"])
        tail = node.get_logs_page(log_filter, cursor=page.next_cursor)
        assert [log.args["cid"] for log in tail.logs] == ["QmTail1"]

    def test_malformed_getlogs_params_are_invalid_params_not_internal(self, stack):
        _, _, client = stack
        from repro.rpc import INVALID_PARAMS, make_request

        for criteria in ({"cursor": "xyz"}, {"limit": "abc"}, {"limit": -5}):
            response = client.gateway.handle(make_request("eth_getLogs", [criteria]))
            assert response["error"]["code"] == INVALID_PARAMS, criteria

    def test_readme_quickstart_ipfs_default_node_works(self):
        from repro.system import quick_config
        from repro.system.orchestrator import build_environment

        env = build_environment(quick_config(num_owners=2, num_samples=400,
                                             local_epochs=1, seed=23))
        client = MarketplaceClient(env.gateway, default_ipfs_node="buyer")
        added = client.ipfs.add(b"model bytes")
        assert client.ipfs.cat(added["cid"]) == b"model bytes"
