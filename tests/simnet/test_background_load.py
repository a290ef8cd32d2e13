"""The flashcrowd/soak scenarios: background load woven into a scenario run."""

import math

import pytest

from repro.errors import SimulationError
from repro.simnet import ScenarioRunner, build_scenario
from repro.simnet.scenario import SCENARIOS, ScenarioSpec
from repro.system import quick_config
from tests.oracles import is_seed_exact


def tiny_config(**overrides):
    defaults = dict(num_owners=2, local_epochs=1, num_samples=400)
    defaults.update(overrides)
    return quick_config(**defaults)


def small_load(**overrides):
    load = {"clients": 30, "rate": 3.0, "duration_seconds": 150.0,
            "mix": {"read": 0.5, "transfer": 0.3, "ipfs": 0.2}}
    load.update(overrides)
    return load


class TestSpec:
    def test_scenarios_registered(self):
        assert "flashcrowd" in SCENARIOS
        assert "soak" in SCENARIOS
        assert SCENARIOS["flashcrowd"].background_load["arrival"] == "flashcrowd"
        assert SCENARIOS["soak"].num_tasks == 3

    def test_background_load_breaks_seed_exactness(self):
        spec = build_scenario("ideal", background_load=small_load())
        assert not is_seed_exact(spec)
        assert is_seed_exact(build_scenario("ideal"))

    def test_to_dict_carries_background_load(self):
        spec = build_scenario("flashcrowd")
        payload = spec.to_dict()
        assert payload["background_load"]["arrival"] == "flashcrowd"
        assert build_scenario("ideal").to_dict()["background_load"] is None

    def test_background_load_must_be_a_dict(self):
        with pytest.raises(SimulationError):
            ScenarioSpec(name="bad", description="x", background_load=[1, 2])

    def test_typoed_override_key_fails_cleanly(self):
        spec = build_scenario("ideal", background_load={"rte": 5.0})
        runner = ScenarioRunner(spec, config=tiny_config())
        with pytest.raises(SimulationError, match="valid keys"):
            runner.run()

    @pytest.mark.parametrize("key", ["mode", "rate_limit", "cluster"])
    def test_a_removed_override_key_fails_cleanly(self, key):
        # The closed loop, the limiter knob and the self-built cluster went
        # with the generator's own stack; a spec still naming them is
        # refused with the valid keys, not run with the key ignored.
        spec = build_scenario("ideal", background_load={key: 1})
        runner = ScenarioRunner(spec, config=tiny_config())
        with pytest.raises(SimulationError, match=f"'{key}'.*valid keys"):
            runner.run()


class TestFlashCrowdScenario:
    @pytest.fixture(scope="class")
    def report(self):
        spec = build_scenario(
            "flashcrowd",
            background_load=small_load(arrival="flashcrowd"),
        )
        return ScenarioRunner(spec, config=tiny_config()).run()

    def test_tasks_complete_under_load(self, report):
        assert report.tasks_completed == 2
        assert report.tasks_failed == 0

    def test_load_stats_reported(self, report):
        load = report.load_stats
        assert load is not None
        assert load["requests_total"] > 0
        assert load["tx_mined"] == load["tx_submitted"] > 0
        assert load["ops"]["read"]["attempts"] > 0
        # Background traffic crossed the same gateway as the tasks'.
        assert report.rpc_stats["requests_total"] > load["requests_total"]

    def test_load_stats_in_report_dict_and_summary(self, report):
        assert report.to_dict()["load"]["tx_submitted"] > 0
        assert "background" in report.summary()

    def test_the_load_line_counts_late_arrivals(self, report):
        # The tasks' blocking wallet waits move the clock inline, so some
        # arrivals fire late; the summary says how many.
        late = report.load_stats["late_arrivals"]
        assert 0 < late <= report.load_stats["offered_requests"]
        assert f"errors, {late} late)" in report.summary()

    def test_one_block_per_slot_under_dual_producers(self):
        # The slot producer and the wallets' blocking waits (evm_mine) both
        # mine; the producer must only fill slots no wallet wait mined, so
        # the modeled 12s Sepolia cadence holds.
        spec = build_scenario("flashcrowd",
                              background_load=small_load(arrival="flashcrowd",
                                                         duration_seconds=240.0))
        runner = ScenarioRunner(spec, config=tiny_config())
        runner.run()
        chain = runner.node.chain
        slots = [chain.consensus.slot_at(block.timestamp)
                 for block in list(chain.iter_blocks())[1:]]
        assert len(slots) == len(set(slots))


class TestOfferedLoad:
    """Background arrivals keep their own timeline beside the tasks: the
    one block producer mines at slot boundaries without moving the clock,
    so the offered load is what the config asks for, whatever the mix."""

    @pytest.fixture(scope="class")
    def runs(self):
        def run(mix):
            spec = build_scenario(
                "flashcrowd",
                background_load={"clients": 30, "rate": 5.0,
                                 "arrival": "poisson",
                                 "duration_seconds": 240.0, "mix": mix})
            runner = ScenarioRunner(spec, config=tiny_config())
            return runner, runner.run()

        return {"transfer": run({"transfer": 1.0}),
                "read": run({"read": 1.0})}

    def test_offered_requests_match_rate_times_window(self, runs):
        # Poisson: 1 200 expected arrivals, standard deviation sqrt(1 200).
        offered = {mix: report.load_stats["offered_requests"]
                   for mix, (_, report) in runs.items()}
        assert abs(offered["transfer"] - 1200) <= 4 * math.sqrt(1200)
        assert offered["transfer"] == offered["read"]

    def test_every_submitted_transfer_is_mined(self, runs):
        load = runs["transfer"][1].load_stats
        assert load["tx_submitted"] > 0
        assert load["tx_mined"] == load["tx_submitted"]

    @pytest.mark.parametrize("mix", ["transfer", "read"])
    def test_no_two_blocks_share_a_slot(self, runs, mix):
        chain = runs[mix][0].node.chain
        slots = [chain.consensus.slot_at(block.timestamp)
                 for block in list(chain.iter_blocks())[1:]]
        assert len(slots) == len(set(slots))


class TestSoakScenario:
    def test_soak_runs_with_small_overrides(self):
        spec = build_scenario(
            "soak",
            num_tasks=2,
            task_stagger_seconds=60.0,
            background_load=small_load(arrival="poisson", duration_seconds=240.0),
        )
        report = ScenarioRunner(spec, config=tiny_config()).run()
        assert report.tasks_completed == 2
        assert report.load_stats["tx_mined"] > 0
        assert report.makespan_seconds >= 240.0

    def test_deterministic_across_runs(self):
        spec = build_scenario(
            "flashcrowd", num_tasks=1,
            background_load=small_load(duration_seconds=120.0),
        )
        first = ScenarioRunner(spec, config=tiny_config()).run()
        second = ScenarioRunner(spec, config=tiny_config()).run()
        assert first.load_stats == second.load_stats
        assert first.makespan_seconds == second.makespan_seconds
        assert first.mempool_total_transactions == second.mempool_total_transactions
