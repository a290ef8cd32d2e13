"""The ``restart`` scenario: mid-task node death + WAL/snapshot recovery.

The chain node is killed partway through a running task and rebuilt purely
from the storage engine.  Because recovery replays to the identical chain
head and the JSON-RPC gateway is re-pointed at the replacement, the
scenario must reproduce the *exact* figures of an uninterrupted run -- the
acceptance criterion of the storage subsystem, exercised end to end.
"""

from __future__ import annotations

import json

import pytest

from repro.simnet import ScenarioRunner, build_scenario, run_scenario
from repro.storage import StorageConfig, StorageEngine
from repro.system import quick_config
from repro.system.artifacts import report_to_dict
from tests.oracles import is_seed_exact

TINY = dict(num_owners=2, num_samples=400, local_epochs=1)

#: Mid-task for the tiny config (its ideal makespan is 84 simulated seconds).
RESTART_AT = 42.0


@pytest.fixture(scope="module")
def ideal_report():
    return run_scenario("ideal", config=quick_config(**TINY))


@pytest.fixture(scope="module")
def restart_report():
    return run_scenario("restart", config=quick_config(**TINY),
                        node_restart_at_seconds=RESTART_AT)


class TestRestartScenario:
    def test_restart_actually_happened_mid_task(self, ideal_report, restart_report):
        assert restart_report.node_restarts == 1
        assert RESTART_AT < ideal_report.makespan_seconds

    def test_task_completes_despite_the_crash(self, restart_report):
        assert restart_report.tasks_failed == 0
        assert restart_report.tasks_completed == 1

    def test_figures_identical_to_uninterrupted_run(self, ideal_report, restart_report):
        ideal, rebooted = ideal_report.tasks[0], restart_report.tasks[0]
        assert rebooted.aggregate_accuracy == ideal.aggregate_accuracy
        assert rebooted.mean_local_accuracy == ideal.mean_local_accuracy
        assert rebooted.total_paid_wei == ideal.total_paid_wei
        assert rebooted.gas_fee_wei == ideal.gas_fee_wei
        assert rebooted.num_submissions == ideal.num_submissions

    def test_chain_timeline_identical(self, ideal_report, restart_report):
        assert restart_report.blocks_produced == ideal_report.blocks_produced
        assert restart_report.makespan_seconds == ideal_report.makespan_seconds
        assert (restart_report.mempool_total_transactions
                == ideal_report.mempool_total_transactions)

    def test_marketplace_report_matches_bit_for_bit(self, ideal_report):
        """Fig. 4-7 payloads from the restarted run equal the ideal run's."""
        ideal_runner = ScenarioRunner("ideal", config=quick_config(**TINY))
        ideal_runner.run()
        restart_runner = ScenarioRunner(
            build_scenario("restart", node_restart_at_seconds=RESTART_AT),
            config=quick_config(**TINY))
        restart_runner.run()
        assert restart_runner.node_restarts == 1
        baseline = ideal_runner.tasks[0].report
        rebooted = restart_runner.tasks[0].report
        assert report_to_dict(rebooted) == report_to_dict(baseline)

    def test_report_carries_storage_stats_and_serializes(self, restart_report):
        payload = restart_report.to_dict()
        json.dumps(payload)  # JSON-safe end to end
        assert payload["node_restarts"] == 1
        assert payload["storage"]["config"]["backend"] == "memory"
        assert "node restart" in restart_report.summary()

    def test_restart_spec_is_not_seed_exact(self):
        assert is_seed_exact(build_scenario("restart")) is False
        assert is_seed_exact(build_scenario("ideal")) is True

    def test_late_restart_is_a_no_op(self):
        report = run_scenario("restart", config=quick_config(**TINY),
                              node_restart_at_seconds=100_000.0)
        assert report.node_restarts == 0
        assert report.tasks_failed == 0


class TestCacheUnderLoad:
    def test_tiny_cache_evicts_under_the_stress_scenario(self):
        """The shared read cache actually cycles under concurrent-task load."""
        engine = StorageEngine(StorageConfig(cache_capacity=4))
        spec = build_scenario("stress", num_tasks=2, task_stagger_seconds=10.0)
        runner = ScenarioRunner(spec, config=quick_config(**TINY), storage=engine)
        report = runner.run()
        stats = engine.cache.snapshot()
        assert stats["evictions"] > 0
        assert stats["entries"] <= 4
        assert stats["hits"] + stats["misses"] > 0
        # The same counters surface through the gateway's request metrics.
        assert report.rpc_stats["storage_cache"] == stats

    def test_cache_stats_are_deterministic(self):
        def run_once():
            engine = StorageEngine(StorageConfig(cache_capacity=4))
            spec = build_scenario("concurrent", num_tasks=2,
                                  task_stagger_seconds=15.0)
            ScenarioRunner(spec, config=quick_config(**TINY), storage=engine).run()
            return engine.cache.snapshot()

        assert run_once() == run_once()
