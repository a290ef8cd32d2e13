"""Tests for repro.web.backend and repro.web.dapp (the full DApp surface)."""

import pytest

from repro.errors import WorkflowError
from repro.chain import EthereumNode, Faucet, KeyPair
from repro.contracts import default_registry
from repro.ipfs import IpfsNode, Swarm
from repro.ml import TrainingConfig
from repro.utils.units import ether_to_wei, gwei_to_wei
from repro.web import BuyerBackend, BuyerDApp, OwnerDApp, RestClient
from repro.web.wallet import MetaMaskWallet

BUDGET = ether_to_wei("0.01")
SPEC = {"task": "digits", "model": [784, 100, 10], "algorithm": "mean", "max_owners": 3}


@pytest.fixture()
def marketplace(tiny_client_datasets, tiny_split):
    """A buyer backend plus two owner DApps wired to one chain and IPFS swarm."""
    _, test = tiny_split
    node = EthereumNode(backend=default_registry())
    faucet = Faucet(node)
    swarm = Swarm()
    buyer_keys = KeyPair.from_label("dapp-buyer")
    faucet.drip(buyer_keys.address, ether_to_wei(1))
    buyer_wallet = MetaMaskWallet(buyer_keys, node, gas_price_wei=gwei_to_wei(1))
    buyer_ipfs = IpfsNode("buyer", swarm)
    backend = BuyerBackend(buyer_wallet, buyer_ipfs, test, aggregator_name="mean")
    buyer = BuyerDApp(backend)

    owners = []
    for index in range(2):
        keys = KeyPair.from_label(f"dapp-owner-{index}")
        faucet.drip(keys.address, ether_to_wei("0.05"))
        wallet = MetaMaskWallet(keys, node, gas_price_wei=gwei_to_wei(1))
        ipfs = IpfsNode(f"owner-{index}", swarm)
        owners.append(OwnerDApp(wallet, ipfs))
    swarm.connect_all()
    return buyer, owners, tiny_client_datasets


def _deploy_and_submit(buyer, owners, datasets):
    """Steps 1-4: the buyer deploys the task, every owner trains and submits."""
    deployment = buyer.deploy_task(SPEC, BUDGET)
    for index, owner in enumerate(owners):
        owner.find_task(deployment["contract_address"])
        owner.register()
        owner.train_local_model(datasets[index], config=TrainingConfig(epochs=1, seed=index),
                                seed=index)
        owner.upload_model()
        owner.submit_cid()


class TestBackendHealth:
    def test_health_route(self, marketplace):
        buyer, _, _ = marketplace
        health = RestClient(buyer.backend.router).get_json("/api/health")
        assert health["status"] == "ok"
        assert health["chain_id"] == 11155111


class TestBuyerFlow:
    def test_deploy_task_escrows_budget(self, marketplace):
        buyer, _, _ = marketplace
        result = buyer.deploy_task(SPEC, BUDGET)
        assert result["contract_address"].startswith("0x")
        status = buyer.task_status()
        assert status["budget_wei"] == BUDGET
        assert status["cid_count"] == 0

    def test_operations_require_deployed_task(self, marketplace):
        buyer, _, _ = marketplace
        with pytest.raises(WorkflowError):
            buyer.download_cids()

    def test_unknown_task_address_is_error(self, marketplace):
        buyer, _, _ = marketplace
        response = RestClient(buyer.backend.router).get("/api/task/0xdeadbeef")
        assert response.status == 400


class TestOwnerFlow:
    def test_owner_buttons_in_order(self, marketplace):
        buyer, owners, datasets = marketplace
        deployment = buyer.deploy_task(SPEC, BUDGET)
        owner = owners[0]
        assert "balance_eth" in owner.connect_wallet()
        info = owner.find_task(deployment["contract_address"])
        assert info["spec"]["task"] == "digits"
        assert owner.register()["status"]
        training = owner.train_local_model(
            datasets[0], config=TrainingConfig(epochs=1, seed=0), seed=0
        )
        assert training["num_samples"] == len(datasets[0])
        upload = owner.upload_model()
        assert upload["cid"].startswith("Qm")
        submission = owner.submit_cid()
        assert submission["status"]
        assert submission["cid_index"] == 0

    def test_upload_before_training_rejected(self, marketplace):
        buyer, owners, _ = marketplace
        deployment = buyer.deploy_task(SPEC, BUDGET)
        owner = owners[0]
        owner.find_task(deployment["contract_address"])
        with pytest.raises(WorkflowError):
            owner.upload_model()

    def test_submit_before_upload_rejected(self, marketplace):
        buyer, owners, datasets = marketplace
        deployment = buyer.deploy_task(SPEC, BUDGET)
        owner = owners[0]
        owner.find_task(deployment["contract_address"])
        owner.register()
        owner.train_local_model(datasets[0], config=TrainingConfig(epochs=1, seed=0))
        with pytest.raises(WorkflowError):
            owner.submit_cid()

    def test_buttons_require_selected_task(self, marketplace):
        _, owners, _ = marketplace
        with pytest.raises(WorkflowError):
            owners[0].register()


class TestFullExchange:
    def test_end_to_end_buyer_and_owners(self, marketplace):
        buyer, owners, datasets = marketplace
        _deploy_and_submit(buyer, owners, datasets)

        listing = buyer.download_cids()
        assert len(listing["cids"]) == 2
        retrieval = buyer.retrieve_models()
        assert retrieval["retrieved"] == 2

        aggregation = buyer.aggregate()
        assert aggregation["algorithm"] == "mean"
        assert 0.0 <= aggregation["aggregate_accuracy"] <= 1.0
        assert len(aggregation["local_accuracies"]) == 2

        incentives = buyer.compute_incentives("leave_one_out")
        assert len(incentives["scores"]) == 2

        payments = buyer.pay_owners()
        assert payments["payments"]
        for owner in owners:
            assert int(owner.check_payment()["payment_eth"].replace(".", "")) >= 0

        results = buyer.results()
        assert results["num_models"] == 2
        assert results["aggregate_accuracy"] is not None

    def test_aggregate_before_retrieve_is_error(self, marketplace):
        buyer, _, _ = marketplace
        buyer.deploy_task(SPEC, BUDGET)
        response = RestClient(buyer.backend.router).post(
            f"/api/task/{buyer.task_address}/aggregate", {}
        )
        assert response.status == 400

    def test_pay_before_incentives_is_error(self, marketplace):
        buyer, _, _ = marketplace
        buyer.deploy_task(SPEC, BUDGET)
        response = RestClient(buyer.backend.router).post(
            f"/api/task/{buyer.task_address}/pay", {}
        )
        assert response.status == 400


@pytest.fixture()
def retrieved(marketplace):
    """The buyer DApp after both owners submitted and the models were fetched."""
    buyer, owners, datasets = marketplace
    _deploy_and_submit(buyer, owners, datasets)
    assert buyer.retrieve_models()["retrieved"] == len(owners)
    return buyer


@pytest.fixture()
def aggregations(monkeypatch):
    """Every ``aggregate`` the backend runs, as ``(algorithm, num_updates)``."""
    from repro.web import backend as backend_module

    calls = []
    make_aggregator = backend_module.make_aggregator

    def counting(name, **kwargs):
        aggregator = make_aggregator(name, **kwargs)
        fuse = aggregator.aggregate

        def aggregate(updates):
            calls.append((aggregator.name, len(updates)))
            return fuse(updates)

        aggregator.aggregate = aggregate
        return aggregator

    monkeypatch.setattr(backend_module, "make_aggregator", counting)
    return calls


class TestGrandCoalitionIsAggregatedOnce:
    """``aggregate`` already computed v(N); ``incentives`` reuses it only
    while it still describes the task's models and the same algorithm."""

    def test_normal_flow_aggregates_n_plus_one_times(self, retrieved, aggregations):
        aggregation = retrieved.aggregate()
        incentives = retrieved.compute_incentives("leave_one_out")
        assert aggregations == [("mean", 2), ("mean", 1), ("mean", 1)]
        assert incentives["full_value"] == aggregation["aggregate_accuracy"]
        # The timing model is fed the evaluations done, wherever they ran.
        assert incentives["num_evaluations"] == 3

    def test_no_reuse_after_a_second_retrieve(self, retrieved, aggregations):
        first = retrieved.aggregate()
        retrieved.retrieve_models()
        del aggregations[:]
        incentives = retrieved.compute_incentives("leave_one_out")
        assert aggregations == [("mean", 2), ("mean", 1), ("mean", 1)]
        assert incentives["num_evaluations"] == 3
        assert incentives["full_value"] == first["aggregate_accuracy"]

    def test_no_reuse_across_algorithms(self, retrieved, aggregations):
        retrieved.aggregate()
        del aggregations[:]
        incentives = retrieved.compute_incentives("leave_one_out", algorithm="ensemble")
        assert aggregations == [("ensemble", 2), ("ensemble", 1), ("ensemble", 1)]
        assert incentives["num_evaluations"] == 3

    def test_incentives_without_an_aggregate_evaluate_everything(self, retrieved, aggregations):
        incentives = retrieved.compute_incentives("leave_one_out")
        assert len(aggregations) == incentives["num_evaluations"] == 3

    def test_a_second_retrieve_forgets_what_was_computed_from_the_first(self, retrieved):
        retrieved.aggregate()
        retrieved.compute_incentives("leave_one_out")
        before = retrieved.results()
        assert before["aggregate_accuracy"] is not None and before["contribution"] is not None
        retrieved.retrieve_models()
        after = retrieved.results()
        assert after["num_models"] == 2
        assert after["aggregate_accuracy"] is None
        assert after["contribution"] is None
