"""Tests for repro.web.backend and repro.web.dapp (the full DApp surface)."""

import json
import weakref

import pytest

from repro.errors import WebError, WorkflowError
from repro.chain import EthereumNode, Faucet, KeyPair
from repro.contracts import default_registry
from repro.fl.oneshot import make_aggregator
from repro.fl.oneshot.pfnm import PFNMAggregator
from repro.incentives import leave_one_out
from repro.ipfs import IpfsNode, Swarm
from repro.ml import TrainingConfig
from repro.ml.serialization import _MAGIC
from repro.rpc import SERVER_ERROR, make_request
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


def report_of(buyer):
    """The consolidated report of the buyer's task (the results screen), fetched
    over the wire through the gateway's served ``oflw3_report`` method."""
    request = make_request("oflw3_report", [buyer.task_address], request_id=1)
    return json.loads(buyer.rpc.gateway.handle_raw(json.dumps(request)))["result"]


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
        health = RestClient(buyer.backend).get_json("/api/health")
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
        response = RestClient(buyer.backend).get("/api/task/0xdeadbeef")
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

        results = report_of(buyer)
        assert results["num_models"] == 2
        assert results["aggregate_accuracy"] is not None

    def test_aggregate_before_retrieve_is_error(self, marketplace):
        buyer, _, _ = marketplace
        buyer.deploy_task(SPEC, BUDGET)
        response = RestClient(buyer.backend).post(
            f"/api/task/{buyer.task_address}/aggregate", {}
        )
        assert response.status == 400

    def test_pay_before_incentives_is_error(self, marketplace):
        buyer, _, _ = marketplace
        buyer.deploy_task(SPEC, BUDGET)
        response = RestClient(buyer.backend).post(
            f"/api/task/{buyer.task_address}/pay", {}
        )
        assert response.status == 400


def _submit_hostile_header(buyer, owners, datasets, header: bytes):
    """One honest submission, then one whose payload carries ``header``;
    returns the hostile owner."""
    _deploy_and_submit(buyer, owners[:1], datasets)
    hostile = owners[1]
    hostile.find_task(buyer.task_address)
    hostile.register()
    payload = _MAGIC + len(header).to_bytes(4, "big") + header
    hostile.session.cid = hostile.rpc.ipfs.add(payload)["cid"]
    hostile.submit_cid()
    return hostile


#: A header that is not an object, one nested past the interpreter's
#: recursion limit (json parses it one frame per ``[``), and one whose
#: integer literal is past the int-digit limit (json raises a bare ValueError).
HOSTILE_HEADERS = [
    (json.dumps([[784, 100, 10], "<f4"]).encode("utf-8"), "JSON object"),
    (b"[" * 100_000, "nested too deeply"),
    (b"1" * 5000, "corrupt model header"),
]


class TestUntrustedUpload:
    @pytest.mark.parametrize("header, reason", HOSTILE_HEADERS, ids=["list", "deep", "digits"])
    def test_a_bad_model_payload_is_a_400_naming_the_cid_and_the_uploader(
            self, marketplace, header, reason):
        """An owner's upload is untrusted input: a payload whose header is
        not a model header fails retrieval as the owner's fault, not a 500."""
        buyer, owners, datasets = marketplace
        hostile = _submit_hostile_header(buyer, owners, datasets, header)

        response = RestClient(buyer.backend).post(
            f"/api/task/{buyer.task_address}/retrieve", {})
        assert response.status == 400
        assert response.body["error_class"] == "WebError"
        assert hostile.session.cid in response.body["error"]
        assert hostile.wallet.address in response.body["error"]
        assert reason in response.body["error"]

    def test_a_deeply_nested_header_is_refused_over_oflw3_retrieve_models(self, marketplace):
        buyer, owners, datasets = marketplace
        hostile = _submit_hostile_header(buyer, owners, datasets, b"[" * 100_000)
        with pytest.raises(WebError) as refusal:
            buyer.retrieve_models()
        assert type(refusal.value) is WebError
        assert hostile.session.cid in str(refusal.value)
        assert hostile.wallet.address in str(refusal.value)
        assert "nested too deeply" in str(refusal.value)


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
        before = report_of(retrieved)
        assert before["aggregate_accuracy"] is not None and before["contribution"] is not None
        retrieved.retrieve_models()
        after = report_of(retrieved)
        assert after["num_models"] == 2
        assert after["aggregate_accuracy"] is None
        assert after["contribution"] is None


class TestTheTaskKeepsItsAggregator:
    """``aggregate`` leaves its aggregator on the task; ``incentives`` runs
    on it for the same algorithm (PFNM reads back its owner-pair blocks) and
    on a fresh one for another, and a new retrieval drops it."""

    @staticmethod
    def from_scratch(buyer, algorithm):
        """Leave-one-out on the task's models, every coalition on a new aggregator."""
        task = buyer.backend.tasks[buyer.task_address]

        def value(subset):
            updates = [task.updates[index] for index in subset]
            result = make_aggregator(algorithm).aggregate(updates)
            return result.evaluate(buyer.backend.test_dataset)

        return leave_one_out(len(task.updates), value).to_dict()

    def test_incentives_run_on_the_aggregate_s_aggregator(self, retrieved):
        retrieved.aggregate("pfnm")
        task = retrieved.backend.tasks[retrieved.task_address]
        aggregator = task.aggregator
        assert isinstance(aggregator, PFNMAggregator)
        incentives = retrieved.compute_incentives("leave_one_out", algorithm="pfnm")
        assert task.aggregator is aggregator
        expected = self.from_scratch(retrieved, "pfnm")
        assert incentives["scores"] == expected["scores"]
        assert incentives["drop_values"] == expected["drop_values"]

    def test_an_algorithm_override_gets_a_fresh_aggregator_and_the_same_numbers(
            self, retrieved, aggregations):
        retrieved.aggregate("pfnm")
        task = retrieved.backend.tasks[retrieved.task_address]
        kept = task.aggregator
        del aggregations[:]
        incentives = retrieved.compute_incentives("leave_one_out")  # the backend's "mean"
        assert aggregations == [("mean", 2), ("mean", 1), ("mean", 1)]
        assert task.aggregator is kept
        expected = self.from_scratch(retrieved, "mean")
        assert incentives == expected

    def test_a_second_retrieve_drops_the_aggregator_and_its_blocks(self, retrieved):
        retrieved.aggregate("pfnm")
        task = retrieved.backend.tasks[retrieved.task_address]
        dropped = weakref.ref(task.aggregator)
        retrieved.retrieve_models()
        assert task.aggregator is None
        assert dropped() is None


@pytest.fixture()
def priced(retrieved):
    """The buyer DApp after step 7b: aggregated and contributions computed."""
    retrieved.aggregate()
    retrieved.compute_incentives("leave_one_out")
    return retrieved


#: (method, params after the task address, the field the refusal must name);
#: ``OWNER`` stands for an uploader's address.
CALLER_MISTAKES = [
    ("oflw3_aggregate", ["bogus"], "algorithm"),
    ("oflw3_aggregate", [7], "algorithm"),
    ("oflw3_aggregate", ["fedov"], "algorithm"),
    ("oflw3_computeIncentives", ["leave_one_out", {"algorithm": "nope"}], "algorithm"),
    ("oflw3_computeIncentives", ["leave_one_out", {"algorithm": "fedov"}], "algorithm"),
    ("oflw3_computeIncentives", ["shapley_monte_carlo", {"num_permutations": "x"}],
     "num_permutations"),
    ("oflw3_computeIncentives", ["shapley_monte_carlo", {"num_permutations": 0}],
     "num_permutations"),
    ("oflw3_payOwners", ["x"], "reserve_fraction"),
    ("oflw3_payOwners", [2.0], "reserve_fraction"),
    ("oflw3_payOwners", [0.0, "abc"], "min_payment_wei"),
    ("oflw3_retrieveModels", [{"OWNER": "x"}], "num_samples"),
    ("oflw3_retrieveModels", [{"OWNER": -3}], "num_samples"),
]


@pytest.mark.parametrize("method, params, field", CALLER_MISTAKES,
                         ids=[f"{case[0]}-{case[1]!r}" for case in CALLER_MISTAKES])
def test_a_caller_mistake_in_steps_6_and_7_is_a_400_naming_the_field(priced, method, params,
                                                                     field):
    """Each of these used to answer an "internal error" 500.  A refusal also
    leaves the task as it was: nothing is fetched, aggregated or paid."""
    owner = priced.backend.tasks[priced.task_address].uploaders[0]
    params = [{owner: param["OWNER"]} if isinstance(param, dict) and "OWNER" in param
              else param for param in params]
    before = report_of(priced)
    request = make_request(method, [priced.task_address, *params], request_id=1)
    error = json.loads(priced.rpc.gateway.handle_raw(json.dumps(request)))["error"]
    assert error["code"] == SERVER_ERROR
    assert error["data"] == {"http_status": 400, "error_class": "WebError"}
    assert repr(field) in error["message"]
    assert report_of(priced) == before
