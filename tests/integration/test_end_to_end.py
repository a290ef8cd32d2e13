"""Cross-subsystem integration tests.

These exercise paths that span several substrates at once (chain + IPFS + ML
+ incentives) beyond what the single end-to-end orchestrator run covers:
alternative aggregators, alternative partitioning, and multi-task reuse of
one chain.
"""


from repro.chain import EthereumNode, Faucet, KeyPair
from repro.contracts import default_registry
from repro.fl.model_update import ModelUpdate
from repro.ipfs import IpfsNode, Swarm
from repro.ml import MLP
from repro.system import quick_config, run_marketplace
from repro.system.orchestrator import build_environment
from repro.utils.units import ether_to_wei, gwei_to_wei


class TestModelThroughIpfsAndChain:
    def test_model_integrity_preserved_through_ipfs_and_cid_registry(self):
        """A model uploaded by an owner is bit-identical after buyer retrieval."""
        node = EthereumNode(backend=default_registry())
        faucet = Faucet(node)
        owner_keys = KeyPair.from_label("integrity-owner")
        faucet.drip(owner_keys.address, ether_to_wei(1))

        swarm = Swarm()
        owner_ipfs = IpfsNode("owner", swarm)
        buyer_ipfs = IpfsNode("buyer", swarm)
        swarm.connect_all()

        model = MLP((784, 100, 10), seed=3)
        update = ModelUpdate.from_model(model, num_samples=123, client_id=owner_keys.address)
        payload = update.to_payload()
        added = owner_ipfs.add_bytes(payload)

        deployment = node.wait_for_receipt(
            node.deploy_contract(owner_keys, "CidStorage", [], gas_price=gwei_to_wei(1))
        )
        node.wait_for_receipt(
            node.transact_contract(
                owner_keys, deployment.contract_address, "uploadCid", [added.cid_string],
                gas_price=gwei_to_wei(1),
            )
        )

        cid_on_chain = node.call(deployment.contract_address, "getCid", [0])
        retrieved = buyer_ipfs.cat(cid_on_chain)
        assert retrieved == payload
        restored = ModelUpdate.from_payload(retrieved, num_samples=123)
        import numpy as np

        x = np.random.default_rng(0).normal(size=(4, 784))
        assert np.array_equal(restored.to_model().predict(x), model.predict(x))


class TestAlternativeConfigurations:
    def test_marketplace_with_mean_aggregator(self):
        report = run_marketplace(
            quick_config(seed=21, aggregator="mean", num_owners=3, num_samples=900)
        )
        assert report.aggregate_algorithm == "mean"
        assert 0.0 <= report.aggregate_accuracy <= 1.0
        assert len(report.payments_wei) <= 3

    def test_marketplace_with_shapley_incentives(self):
        report = run_marketplace(
            quick_config(
                seed=23,
                incentive_method="shapley_monte_carlo",
                num_owners=3,
                num_samples=900,
                local_epochs=1,
            )
        )
        assert len(report.contributions) == 3
        assert report.total_paid_wei <= report.config.budget_wei

    def test_budget_is_conserved_end_to_end(self):
        config = quick_config(seed=24, num_owners=3, num_samples=900)
        environment = build_environment(config)
        report = run_marketplace(environment=environment)
        env = environment
        # The contract keeps whatever was not paid out; nothing is lost.
        contract_balance = env.node.get_balance(report.workflow_result.task_address)
        assert contract_balance == config.budget_wei - report.total_paid_wei
        # Owners' ETH gains equal the payments minus the gas they spent.
        for owner in env.owners:
            payment = report.payments_wei.get(owner.address, 0)
            balance = env.node.get_balance(owner.address)
            fees_paid = sum(activity.receipt.fee_wei for activity in owner.wallet.activity
                            if activity.receipt is not None)
            assert balance == config.owner_funding_wei + payment - fees_paid


class TestMultipleTasksOnOneChain:
    def test_two_sequential_tasks_do_not_interfere(self):
        config = quick_config(seed=25, num_owners=2, num_samples=600, local_epochs=1)
        env = build_environment(config)
        first = run_marketplace(environment=env)

        # Re-fund the buyer and run a second, independent task on the same chain.
        env2 = build_environment(config.with_overrides(seed=26))
        second = run_marketplace(environment=env2)

        assert first.workflow_result.task_address != second.workflow_result.task_address
        assert first.total_paid_wei > 0
        assert second.total_paid_wei > 0
