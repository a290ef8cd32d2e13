"""Tests for repro.system.roles, repro.system.workflow and the orchestrator.

Most assertions run against the session-scoped ``quick_marketplace_report``
fixture (one full end-to-end run at test scale), so the expensive simulation
executes only once.
"""

import pytest

from repro.errors import WorkflowError
from repro.system import quick_config
from repro.system.orchestrator import build_environment
from repro.system.roles import BUYER_BLOCKCHAIN_PHASES, OWNER_BLOCKCHAIN_PHASES
from repro.system.workflow import OFLW3Workflow
from repro.utils.units import ether_to_wei


class TestWorkflowOrdering:
    def test_steps_out_of_order_rejected(self):
        env = build_environment(quick_config(num_owners=2, num_samples=400, seed=3))
        workflow = env.workflow
        with pytest.raises(WorkflowError):
            workflow.step2_to_4_owner_contributions()
        with pytest.raises(WorkflowError):
            workflow.step5_download_cids()

    def test_step7_requires_retrieval(self):
        env = build_environment(quick_config(num_owners=2, num_samples=400, seed=3))
        workflow = env.workflow
        workflow.step1_deploy({"task": "t", "model": [784, 100, 10], "max_owners": 2},
                              ether_to_wei("0.001"))
        with pytest.raises(WorkflowError):
            workflow.step7_aggregate_and_pay()

    def test_workflow_requires_owners(self):
        env = build_environment(quick_config(num_owners=1, num_samples=300, seed=3))
        with pytest.raises(WorkflowError):
            OFLW3Workflow(buyer=env.buyer, owners=[])


class TestEnvironmentConstruction:
    def test_environment_shapes(self):
        config = quick_config(num_owners=3, num_samples=600, seed=5)
        env = build_environment(config)
        assert len(env.owners) == 3
        assert env.node.get_balance(env.buyer.address) == config.buyer_funding_wei
        assert all(
            env.node.get_balance(owner.address) == config.owner_funding_wei
            for owner in env.owners
        )
        # Every owner has a non-empty private shard, and shards are disjoint by size.
        assert all(len(owner.dataset) > 0 for owner in env.owners)
        assert sum(len(owner.dataset) for owner in env.owners) == len(env.train_dataset)
        # IPFS swarm is fully meshed: buyer can reach every owner node.
        assert len(env.swarm.nodes()) == 4


class TestMarketplaceReport:
    def test_fig4_aggregate_beats_every_local_model(self, quick_marketplace_report):
        report = quick_marketplace_report
        assert len(report.local_accuracies) == report.config.num_owners
        assert report.aggregate_accuracy > max(report.local_accuracies)
        assert report.accuracy_margin_over_worst > 0.1

    def test_fig6_loo_drop_accuracies_complete(self, quick_marketplace_report):
        report = quick_marketplace_report
        assert len(report.drop_accuracies) == report.config.num_owners
        assert all(0.0 <= acc <= 1.0 for acc in report.drop_accuracies)
        assert report.least_useful_owner in report.owner_addresses

    def test_table1_payments_within_budget_and_positive(self, quick_marketplace_report):
        report = quick_marketplace_report
        assert 0 < report.total_paid_wei <= report.config.budget_wei
        rows = report.payment_rows()
        assert len(rows) == report.config.num_owners
        assert all(row["wallet_address"].startswith("0x") for row in rows)

    def test_payments_proportional_to_contribution(self, quick_marketplace_report):
        report = quick_marketplace_report
        # The owner with the highest contribution receives the largest payment.
        best_owner = max(report.contributions, key=report.contributions.get)
        positive = {a: c for a, c in report.contributions.items() if c > 0}
        if positive:
            assert report.payments_wei[best_owner] == max(report.payments_wei.values())

    def test_owners_actually_received_eth(self, quick_marketplace_report):
        report = quick_marketplace_report
        assert sum(report.payments_wei.values()) > 0

    def test_fig5_gas_ordering(self, quick_marketplace_report):
        report = quick_marketplace_report.gas_report
        assert report.ordering_holds()

    def test_fig7_blockchain_dominates_time(self, quick_marketplace_report):
        report = quick_marketplace_report
        owner_breakdown = report.owner_time_breakdown()
        owner_chain_fraction = owner_breakdown.blockchain_fraction(OWNER_BLOCKCHAIN_PHASES)
        buyer_chain_fraction = report.buyer_breakdown.blockchain_fraction(BUYER_BLOCKCHAIN_PHASES)
        assert owner_chain_fraction > 0.5
        assert buyer_chain_fraction > 0.5

    def test_model_payload_is_about_317_kb(self, quick_marketplace_report):
        assert abs(quick_marketplace_report.model_payload_bytes - 317 * 1024) < 8 * 1024

    def test_ipfs_transferred_all_models_to_buyer(self, quick_marketplace_report):
        report = quick_marketplace_report
        expected = report.model_payload_bytes * report.config.num_owners
        assert report.ipfs_bytes_transferred >= expected

    def test_report_serializes(self, quick_marketplace_report):
        from repro.system.artifacts import report_to_dict

        payload = report_to_dict(quick_marketplace_report)
        assert "aggregate_accuracy" in payload
        assert "gas" in payload
        assert "owner_time" in payload
