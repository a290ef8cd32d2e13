"""Load-driver behaviour: determinism, saturation, rate limits, modes, and
the >= 1000-client sweep on the simulated clock."""

import multiprocessing

import pytest

from repro.errors import SimulationError
from repro.loadgen import LoadGenConfig, LoadGenerator, RequestMix, run_sweep


# The 1000-client saturation sweep runs tens of simulated minutes; give it
# headroom under the CI-wide --timeout=120.
pytestmark = pytest.mark.timeout(300)


def small_config(**overrides):
    base = dict(clients=40, duration_seconds=60.0, rate=8.0, seed=11)
    base.update(overrides)
    return LoadGenConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(SimulationError):
            LoadGenConfig(clients=0)
        with pytest.raises(SimulationError):
            LoadGenConfig(rate=-1)
        with pytest.raises(SimulationError):
            LoadGenConfig(mode="sideways")

    def test_closed_loop_requires_positive_think_time(self):
        # Zero think time with a transferless mix would never advance the
        # sim clock (reads are instant) and spin until the event budget.
        with pytest.raises(SimulationError, match="think_time_seconds"):
            LoadGenConfig(mode="closed", think_time_seconds=0.0)

    def test_transferless_report_is_consistent(self):
        config = small_config(mix={"read": 0.7, "ipfs": 0.3},
                              duration_seconds=30.0)
        generator = LoadGenerator(config)
        report = generator.run()
        assert report.tx_submitted == 0
        assert "transfer" not in report.ops
        # finalize() must be idempotent -- no side effects on the ops dict.
        assert generator.finalize().sim_dict()["ops"] == report.sim_dict()["ops"]

    def test_mix_parse_round_trip(self):
        mix = RequestMix.parse("transfer=2,read=1,ipfs=1")
        assert mix.weight("transfer") == pytest.approx(0.5)
        assert mix.weight("read") == pytest.approx(0.25)
        with pytest.raises(SimulationError):
            RequestMix.parse("warp=1")


class TestOpenLoop:
    def test_all_transfers_mine_below_capacity(self):
        report = LoadGenerator(small_config()).run()
        assert report.tx_submitted > 0
        assert report.tx_mined == report.tx_submitted
        assert report.errors_total == 0
        assert report.in_window_mined_fraction == 1.0
        # Confirmation latency is bounded by roughly two slots when the
        # producer keeps up.
        assert report.tx_confirmation["p99"] <= 24.0

    def test_offered_rate_is_honest(self):
        # ~rate * duration arrivals must actually fire (the block producer
        # must not eat simulated time from the arrival process).
        config = small_config(rate=10.0, duration_seconds=100.0)
        report = LoadGenerator(config).run()
        assert report.offered_requests == pytest.approx(1000, rel=0.1)

    def test_deterministic_sim_metrics(self):
        config = small_config()
        first = LoadGenerator(config).run()
        second = LoadGenerator(config).run()
        assert first.sim_dict() == second.sim_dict()

    def test_seed_changes_schedule(self):
        first = LoadGenerator(small_config(seed=1)).run()
        second = LoadGenerator(small_config(seed=2)).run()
        assert first.sim_dict() != second.sim_dict()

    def test_overload_builds_backlog(self):
        # Offered far above the ~41 tx/s slot capacity (500 txs per 12 s
        # block): the backlog must show up as a saturated window and a
        # mempool that outgrows a block.
        config = small_config(clients=100, rate=100.0, duration_seconds=18.0,
                              mix={"transfer": 1.0})
        report = LoadGenerator(config).run()
        assert report.tx_mined == report.tx_submitted  # drains eventually
        assert report.in_window_mined_fraction < 0.8
        assert report.mempool_max_depth > 500
        assert report.makespan_seconds > config.duration_seconds

    def test_rate_limit_surfaces_as_errors(self):
        config = small_config(rate=40.0, rate_limit=5.0)
        report = LoadGenerator(config).run()
        assert report.errors_total > 0
        counted = sum(
            op["errors_by_class"].get("RateLimitError", 0)
            for op in report.ops.values()
        )
        assert counted == report.errors_total

    def test_ipfs_and_read_ops_served(self):
        report = LoadGenerator(small_config()).run()
        assert report.ops["read"]["attempts"] > 0
        assert report.ops["ipfs"]["attempts"] > 0
        assert report.ops["ipfs"]["errors"] == 0

    def test_analytics_ops_without_a_replica_become_reads(self):
        # A standalone stack has no analytics replica attached: every drawn
        # analytics op must be silently re-drawn as a read (the oflw3 idiom),
        # never surface as an error or an analytics_* RPC failure.
        config = small_config(mix={"read": 0.3, "transfer": 0.4,
                                   "analytics": 0.3})
        report = LoadGenerator(config).run()
        assert "analytics" not in report.ops
        assert report.ops["read"]["attempts"] > 0
        assert report.errors_total == 0

    def test_analytics_mix_is_deterministic(self):
        config = small_config(mix={"read": 0.5, "analytics": 0.5},
                              duration_seconds=40.0)
        first = LoadGenerator(config).run()
        second = LoadGenerator(config).run()
        assert first.sim_dict()["ops"] == second.sim_dict()["ops"]


class TestClosedLoop:
    def test_closed_loop_completes_and_accounts(self):
        config = small_config(mode="closed", clients=15,
                              think_time_seconds=15.0, duration_seconds=120.0)
        report = LoadGenerator(config).run()
        assert report.offered_requests > 0
        assert report.tx_mined == report.tx_submitted
        assert report.errors_total == 0

    def test_receipt_timeout_does_not_double_count(self):
        # With a zero poll budget every transfer times out immediately; the
        # submission already counted as a success, so attempts must not be
        # inflated by the timeout.
        config = small_config(mode="closed", clients=5, duration_seconds=60.0,
                              think_time_seconds=10.0,
                              mix={"transfer": 1.0},
                              receipt_timeout_polls=0)
        report = LoadGenerator(config).run()
        assert report.receipt_timeouts == report.tx_submitted > 0
        assert report.ops["transfer"]["attempts"] == report.offered_requests
        assert report.ops["transfer"]["errors"] == 0

    def test_closed_loop_deterministic(self):
        config = small_config(mode="closed", clients=10, duration_seconds=100.0)
        assert (LoadGenerator(config).run().sim_dict()
                == LoadGenerator(config).run().sim_dict())


class TestThousandClientSweep:
    def test_saturation_sweep_with_1000_clients(self):
        # The acceptance bar: >= 1000 simulated clients, a full sweep, all on
        # the simulated clock.  Kept to two rate points for suite wall-time:
        # one below the ~41 tx/s block capacity, one well above it.
        config = LoadGenConfig(clients=1000, duration_seconds=45.0, rate=10.0,
                               seed=5)
        report = run_sweep(config, rates=[20.0, 120.0])
        assert len(report.points) == 2
        below, above = report.points
        assert below.tx_submitted > 0
        assert not below.saturated
        assert above.saturated
        assert above.mempool_max_depth > below.mempool_max_depth
        assert above.confirmation_p99 > below.confirmation_p99
        assert report.saturation_rate == 120.0

    def test_sweep_rejects_closed_loop(self):
        # The offered rate only drives the open-loop arrival process; a
        # closed-loop sweep would report a fabricated capacity curve.
        config = small_config(mode="closed", think_time_seconds=10.0)
        with pytest.raises(SimulationError, match="open-loop"):
            run_sweep(config, rates=[10.0, 20.0])

    def test_sweep_dict_shape(self):
        config = small_config(duration_seconds=48.0)
        payload = run_sweep(config, rates=[8.0]).to_dict()
        assert sorted(payload) == ["points", "saturation_rate", "schema"]
        assert payload["schema"] == "oflw3-load-sweep/v2"
        assert payload["points"][0]["offered_rate"] == 8.0
        assert payload["saturation_rate"] is None

    def test_sweep_dict_is_deterministic(self):
        # No wall-clock field survives in a sweep: the same seed gives the
        # same dict, byte for byte.
        config = small_config(duration_seconds=36.0)
        first = run_sweep(config, rates=[8.0]).to_dict()
        assert run_sweep(config, rates=[8.0]).to_dict() == first

    def test_sweep_stops_the_verify_workers_it_started(self):
        # Each point's generator owns a chain with a 2-worker verify pool;
        # none may outlive the sweep.
        before = set(multiprocessing.active_children())
        report = run_sweep(small_config(duration_seconds=36.0, batch_verify=2),
                           rates=[4.0, 8.0])
        assert all(point.tx_submitted > 0 for point in report.points)
        assert set(multiprocessing.active_children()) <= before


class TestAttachedMode:
    def test_attached_mode_requires_stack(self):
        with pytest.raises(SimulationError):
            LoadGenerator(small_config(), scheduler=object())  # missing accessors

    def test_attached_mode_rejects_rate_limit(self):
        # The limiter only exists on a standalone stack; silently ignoring
        # the knob would report a rate_limit that was never applied.
        from repro.simnet import ScenarioRunner, build_scenario
        from repro.system import quick_config

        spec = build_scenario(
            "ideal", background_load={"clients": 5, "rate": 2.0,
                                      "duration_seconds": 30.0,
                                      "rate_limit": 5.0})
        runner = ScenarioRunner(
            spec, config=quick_config(num_owners=2, local_epochs=1,
                                      num_samples=400))
        with pytest.raises(SimulationError, match="rpc_rate_limit"):
            runner.run()

    def test_a_handed_cluster_stack_mints_through_leader_rotation(self):
        """The drain tail after the tasks end is this generator's to mine.
        Minted with ``chain.produce_block`` on the freshest replica, those
        blocks were never gossiped (heights ``[23, 14, 14]``) and only the
        run's closing anti-entropy round made the report say converged."""
        from repro.simnet import ScenarioRunner, build_scenario
        from repro.system import quick_config

        spec = build_scenario(
            "leader_crash", num_tasks=1,
            background_load={"clients": 10, "rate": 1.0,
                             "duration_seconds": 260.0,
                             "mix": {"transfer": 1.0}})
        runner = ScenarioRunner(
            spec, config=quick_config(num_owners=2, local_epochs=1,
                                      num_samples=400, seed=7))
        cluster = runner.cluster
        converge, before = cluster.converge, {}

        def spy(*args, **kwargs):
            before["heights"] = [replica.height for replica in cluster.replicas]
            before["identical"] = cluster.heads_identical()
            return converge(*args, **kwargs)

        cluster.converge = spy
        report = runner.run()
        assert before["identical"], before["heights"]
        assert len(set(before["heights"])) == 1 and before["heights"][0] > 14
        assert report.cluster_stats["converged"]
