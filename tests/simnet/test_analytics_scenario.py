"""The analytics_storm scenario: replica-served reads woven into a run."""

import pytest

from repro.errors import SimulationError
from repro.simnet import ScenarioRunner, build_scenario
from repro.simnet.scenario import SCENARIOS, ScenarioSpec
from repro.system import quick_config


def tiny_config(**overrides):
    defaults = dict(num_owners=2, local_epochs=1, num_samples=400)
    defaults.update(overrides)
    return quick_config(**defaults)


def small_load(**overrides):
    load = {"clients": 30, "rate": 3.0, "duration_seconds": 150.0,
            "mix": {"read": 0.4, "transfer": 0.3, "analytics": 0.3}}
    load.update(overrides)
    return load


class TestSpec:
    def test_scenario_registered(self):
        spec = SCENARIOS["analytics_storm"]
        assert spec.analytics == {"interval_seconds": 5.0}
        assert spec.background_load["mix"]["analytics"] == 0.3

    def test_analytics_breaks_seed_exactness(self):
        assert not build_scenario("analytics_storm").is_seed_exact
        spec = build_scenario("ideal", analytics={"interval_seconds": 10.0})
        assert not spec.is_seed_exact
        assert build_scenario("ideal").is_seed_exact

    def test_to_dict_key_is_conditional(self):
        """The obs_stats byte-stability pattern: no key on seed specs."""
        assert "analytics" not in build_scenario("ideal").to_dict()
        payload = build_scenario("analytics_storm").to_dict()
        assert payload["analytics"] == {"interval_seconds": 5.0}

    def test_analytics_must_be_a_dict(self):
        with pytest.raises(SimulationError, match="analytics"):
            ScenarioSpec(name="bad", description="x", analytics=5.0)

    def test_unknown_knob_rejected(self):
        with pytest.raises(SimulationError, match="valid keys"):
            ScenarioSpec(name="bad", description="x",
                         analytics={"intervalseconds": 5.0})

    @pytest.mark.parametrize("interval", [0, -3, "fast"])
    def test_bad_interval_rejected(self, interval):
        with pytest.raises(SimulationError, match="interval_seconds"):
            ScenarioSpec(name="bad", description="x",
                         analytics={"interval_seconds": interval})


class TestAnalyticsStormRun:
    @staticmethod
    def spec():
        return build_scenario(
            "analytics_storm", num_tasks=1, task_stagger_seconds=0.0,
            analytics={"interval_seconds": 10.0},
            background_load=small_load())

    @pytest.fixture(scope="class")
    def report(self):
        return ScenarioRunner(self.spec(), config=tiny_config()).run()

    def test_an_observed_run_exports_the_replica_freshness_series(self, report):
        """How far the analytical replica trails the transactional side is
        the number an HTAP design is judged by: ``--obs`` must export it."""
        runner = ScenarioRunner(self.spec(), config=tiny_config(),
                                observability=True)
        observed = runner.run()
        exposition = runner.obs.registry.render_prometheus()
        for name in ("repro_analytics_lag_entries", "repro_analytics_applied_seq",
                     "repro_analytics_rollbacks_total"):
            assert f"\n{name} " in exposition
        metrics = observed.obs_stats["metrics"]
        status = observed.analytics_stats["status"]
        assert (metrics["repro_analytics_applied_seq"]["series"][0]["value"]
                == status["applied_seq"] > 0)
        assert {row["labels"]["table"]: row["value"]
                for row in metrics["repro_analytics_rows"]["series"]} == {
            "logs": status["logs"], "transactions": status["transactions"]}
        # Observing changes nothing it observes.
        assert observed.analytics_stats == report.analytics_stats
        assert observed.load_stats == report.load_stats

    def test_tasks_complete_with_the_replica_attached(self, report):
        assert report.tasks_completed == 1
        assert report.tasks_failed == 0

    def test_replica_served_queries_and_parity(self, report):
        stats = report.analytics_stats
        assert stats is not None
        assert stats["parity_ok"] is True
        assert stats["queries_total"] > 0
        assert stats["queries_total"] == sum(stats["queries_by_kind"].values())
        assert stats["status"]["lag_entries"] == 0
        assert stats["status"]["rollbacks"] == 0
        assert stats["status"]["height"] > 0

    def test_load_mix_reached_the_analytics_namespace(self, report):
        ops = report.load_stats["ops"]
        assert ops["analytics"]["attempts"] > 0
        assert ops["analytics"]["errors"] == 0

    def test_report_dict_and_summary_carry_analytics(self, report):
        assert report.to_dict()["analytics"] == report.analytics_stats
        assert "analytics:" in report.summary()
        assert "parity=ok" in report.summary()

    def test_no_analytics_means_no_report_key(self):
        spec = build_scenario("ideal")
        report = ScenarioRunner(spec, config=tiny_config()).run()
        assert report.analytics_stats is None
        assert "analytics" not in report.to_dict()
        assert "analytics:" not in report.summary()

    def test_deterministic_across_runs(self):
        spec = build_scenario(
            "analytics_storm", num_tasks=1, task_stagger_seconds=0.0,
            analytics={"interval_seconds": 20.0},
            background_load=small_load(duration_seconds=120.0))
        first = ScenarioRunner(spec, config=tiny_config()).run()
        second = ScenarioRunner(spec, config=tiny_config()).run()
        assert first.analytics_stats == second.analytics_stats
        assert first.load_stats == second.load_stats


class TestAnalyticsAcrossChaos:
    def test_restart_rebuilds_the_replica_by_backfill(self):
        spec = build_scenario("restart", node_restart_at_seconds=30.0,
                              analytics={"interval_seconds": 10.0})
        report = ScenarioRunner(spec, config=tiny_config()).run()
        assert report.node_restarts == 1
        stats = report.analytics_stats
        assert stats["parity_ok"] is True
        assert stats["queries_total"] > 0

    def test_cluster_scenario_attaches_to_a_follower(self):
        spec = build_scenario("partition_heal",
                              num_tasks=1, task_stagger_seconds=0.0,
                              partition_at_seconds=30.0,
                              heal_at_seconds=90.0,
                              analytics={"interval_seconds": 15.0})
        runner = ScenarioRunner(spec, config=tiny_config())
        report = runner.run()
        carriers = [replica for replica in runner.cluster.replicas
                    if replica.analytics_enabled]
        assert len(carriers) == 1
        stats = report.analytics_stats
        assert stats["parity_ok"] is True
        # The healed partition reorged the follower's branch away: the
        # replica must have rolled back and still answer parity-identically.
        assert stats["status"]["rollbacks"] >= 1
