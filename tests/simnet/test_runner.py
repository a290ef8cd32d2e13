"""Integration tests for the scenario runner.

The two load-bearing guarantees:

* the default "ideal" scenario reproduces the seed's ``run_marketplace``
  report -- and with it every Fig. 4-7 number -- exactly;
* >= 3 concurrent tasks run to completion against one shared chain node,
  deterministically.
"""

import pytest

from repro.simnet import ScenarioRunner, run_scenario
from repro.simnet.scenario import SCENARIOS, build_scenario
from repro.system import quick_config, run_marketplace
from repro.system.artifacts import report_to_dict
from tests.oracles import is_seed_exact


def tiny_config(**overrides):
    base = dict(num_owners=2, num_samples=400, local_epochs=1)
    base.update(overrides)
    return quick_config(**base)


@pytest.fixture(scope="module")
def ideal_runner():
    # Same config as the session-scoped quick_marketplace_report fixture.
    runner = ScenarioRunner("ideal", config=quick_config(seed=13))
    runner.run()
    return runner


class TestIdealExactness:
    def test_ideal_scenario_matches_run_marketplace_exactly(
            self, ideal_runner, quick_marketplace_report):
        """The acceptance bar: identical Fig. 4-7 numbers under "ideal"."""
        task_report = ideal_runner.tasks[0].report
        seed_report = quick_marketplace_report
        # report_to_dict covers Fig. 4 (accuracies), Fig. 5 (gas), Fig. 6
        # (LOO), Table 1 (payments) and Fig. 7 (time breakdowns).
        assert report_to_dict(task_report) == report_to_dict(seed_report)
        assert task_report.payments_wei == seed_report.payments_wei
        assert task_report.contributions == seed_report.contributions
        assert (task_report.model_payload_bytes_by_owner
                == seed_report.model_payload_bytes_by_owner)

    def test_ideal_spec_is_flagged_seed_exact(self):
        assert is_seed_exact(SCENARIOS["ideal"])
        assert not is_seed_exact(SCENARIOS["concurrent"])
        assert not is_seed_exact(SCENARIOS["adversarial"])


class TestConcurrentScenario:
    @pytest.fixture(scope="class")
    def concurrent_report(self):
        return run_scenario("concurrent", config=tiny_config(),
                            num_tasks=3, task_stagger_seconds=20.0)

    def test_three_concurrent_tasks_complete_on_one_node(self, concurrent_report):
        report = concurrent_report
        assert len(report.tasks) == 3
        assert report.tasks_completed == 3
        addresses = {task.task_address for task in report.tasks}
        assert len(addresses) == 3  # three distinct contracts on one chain
        for task in report.tasks:
            assert task.num_submissions == task.num_owners
            assert task.aggregate_accuracy is not None
            assert task.gas_fee_wei > 0

    def test_tasks_genuinely_overlap(self, concurrent_report):
        report = concurrent_report
        # With a 20s stagger and async submissions, later tasks must start
        # before earlier ones finish, and the shared mempool must have
        # queued transactions from more than one sender at once.
        starts = [task.started_at for task in report.tasks]
        finishes = [task.finished_at for task in report.tasks]
        assert starts[1] < finishes[0] and starts[2] < finishes[0]
        assert report.mempool_max_depth >= 2
        assert report.makespan_seconds < sum(
            task.duration_seconds for task in report.tasks)

    def test_mempool_depth_series_is_monotone_in_time(self, concurrent_report):
        times = [t for t, _ in concurrent_report.mempool_depth_series]
        assert times == sorted(times)
        assert any(depth >= 2 for _, depth in concurrent_report.mempool_depth_series)

    def test_concurrent_run_is_deterministic(self):
        first = run_scenario("concurrent", config=tiny_config(),
                             num_tasks=3, task_stagger_seconds=20.0)
        second = run_scenario("concurrent", config=tiny_config(),
                              num_tasks=3, task_stagger_seconds=20.0)
        assert first.to_dict() == second.to_dict()


class TestAdversarialScenario:
    def test_poisoners_degrade_the_aggregate(self):
        config = quick_config(num_owners=4, num_samples=1_200, local_epochs=2)
        honest = run_scenario("adversarial", config=config,
                              behavior_fractions={})
        poisoned = run_scenario("adversarial", config=config,
                                behavior_fractions={"poisoner": 0.5})
        assert honest.tasks[0].adversary_fraction == 0.0
        assert poisoned.tasks[0].adversary_fraction == pytest.approx(0.5)
        assert (poisoned.tasks[0].aggregate_accuracy
                < honest.tasks[0].aggregate_accuracy)

    def test_adversarial_report_records_archetypes(self):
        report = run_scenario("adversarial", config=tiny_config(num_owners=4),
                              behavior_fractions={"poisoner": 0.25})
        assert report.tasks[0].archetype_counts == {"poisoner": 1, "honest": 3}


class TestChurnScenario:
    def test_dropouts_shrink_the_payment_table(self):
        config = tiny_config(num_owners=4)
        runner = ScenarioRunner(
            build_scenario("churn",
                           behavior_fractions={"dropout": 0.5},
                           behavior_kwargs={}),
            config=config)
        report = runner.run()
        task = report.tasks[0]
        assert task.status == "completed"
        assert task.num_submissions == 2
        assert task.total_paid_wei > 0
        # The per-task MarketplaceReport must stay renderable with partial
        # participation: dropped owners simply have no Fig. 4/6 bars.
        marketplace = runner.tasks[0].report
        assert len(marketplace.local_accuracies) == 2
        assert len(marketplace.drop_accuracies) == 2
        # The default churner vanishes *before submitting*: it still uploaded
        # to IPFS, so all four payloads exist but only two CIDs landed.
        assert len(marketplace.model_payload_bytes_by_owner) == 4

    def test_async_submission_keeps_wallet_accounting(self):
        report_runner = ScenarioRunner(
            build_scenario("concurrent", num_tasks=1, task_stagger_seconds=0.0),
            config=tiny_config())
        report_runner.run()
        for owner in report_runner.tasks[0].env.owners:
            descriptions = [activity.description for activity in owner.wallet.activity]
            assert "Submit model CID" in descriptions
            assert sum(activity.receipt.fee_wei for activity in owner.wallet.activity
                       if activity.receipt is not None) > 0


class TestRunnerMechanics:
    def test_runner_runs_exactly_once(self, ideal_runner):
        with pytest.raises(Exception):
            ideal_runner.run()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(Exception):
            build_scenario("nope")

    def test_scenario_report_roundtrips_to_dict(self):
        report = run_scenario("ideal", config=tiny_config())
        payload = report.to_dict()
        assert payload["schema"] == "oflw3-scenario-report/v1"
        assert payload["tasks_completed"] == 1
        assert payload["scenario"]["name"] == "ideal"
        import json

        json.dumps(payload)  # JSON-safe end to end


class TestRpcGatewayScenarios:
    """The shared JSON-RPC gateway is the one door for every scenario."""

    @pytest.fixture(scope="class")
    def storm_report(self):
        return run_scenario("rpc_storm", config=tiny_config(),
                            num_tasks=3, task_stagger_seconds=15.0)

    def test_rpc_storm_completes_and_meters_all_traffic(self, storm_report):
        report = storm_report
        assert report.tasks_completed == 3
        stats = report.rpc_stats
        assert stats is not None
        assert stats["errors_total"] == 0
        # Chain writes, reads, receipt polling, IPFS and the oflw3 app calls
        # all crossed the shared gateway.
        for method in ("eth_sendRawTransaction", "eth_call",
                       "eth_getTransactionReceipt", "ipfs_add", "ipfs_cat",
                       "oflw3_deployTask", "oflw3_aggregate"):
            assert stats["by_method"].get(method, 0) > 0, method
        # Async submissions poll for receipts, so reads dominate writes.
        assert (stats["by_method"]["eth_getTransactionReceipt"]
                > stats["by_method"]["eth_sendRawTransaction"])

    def test_rpc_storm_report_renders_and_serializes(self, storm_report):
        import json

        assert "rpc:" in storm_report.summary()
        json.dumps(storm_report.to_dict())  # JSON-safe end to end

    def test_ideal_scenario_also_reports_gateway_metrics(self):
        report = run_scenario("ideal", config=tiny_config())
        assert report.rpc_stats is not None
        assert report.rpc_stats["requests_total"] > 0
        assert report.to_dict()["rpc"]["requests_total"] > 0
