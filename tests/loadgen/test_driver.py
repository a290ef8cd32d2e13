"""Load-generator behaviour: determinism, an honest offered rate, overload,
refused requests and replication, each on a stack the generator is handed."""

import pytest

from repro.cluster import ClusterConfig
from repro.errors import SimulationError
from repro.loadgen import LoadGenConfig, LoadGenerator, RequestMix, presigned_transfers
from repro.simnet.events import EventScheduler
from repro.simnet.runner import slot_producer
from repro.system.stack import build_stack
from repro.utils.units import ether_to_wei


def small_config(**overrides):
    base = dict(clients=40, duration_seconds=60.0, rate=8.0, seed=11)
    base.update(overrides)
    return LoadGenConfig(**base)


@pytest.fixture()
def drive():
    """Attach a generator to a fresh ``build_stack(**options)``, install it,
    drain the scheduler on the stack's clock and return the generator; every
    stack built here is closed at teardown."""
    stacks = []

    def run(config, **options):
        stack = build_stack(**options)
        stacks.append(stack)
        scheduler = EventScheduler(stack.clock)
        generator = LoadGenerator(config, stack=stack, scheduler=scheduler)
        generator.install()
        scheduler.spawn(slot_producer(stack, generator.busy), name="block-producer")
        scheduler.run()
        return generator

    yield run
    for stack in stacks:
        stack.close()


class TestConfig:
    def test_validation(self):
        with pytest.raises(SimulationError):
            LoadGenConfig(clients=0)
        with pytest.raises(SimulationError):
            LoadGenConfig(rate=-1)

    @pytest.mark.parametrize("kind", ["warp", "oflw3"])
    def test_unknown_mix_kind_is_refused(self, kind):
        with pytest.raises(SimulationError, match="unknown operation kinds"):
            RequestMix({kind: 1.0, "read": 1.0})

    def test_unknown_arrival_kind_is_refused(self, drive):
        with pytest.raises(SimulationError, match="poisson, flashcrowd"):
            drive(small_config(arrival="uniform"))

    def test_a_generator_installs_exactly_once(self):
        stack = build_stack()
        try:
            generator = LoadGenerator(small_config(), stack=stack,
                                      scheduler=EventScheduler(stack.clock))
            generator.install()
            with pytest.raises(SimulationError, match="exactly once"):
                generator.install()
        finally:
            stack.close()

    def test_transferless_report_is_consistent(self, drive):
        config = small_config(mix={"read": 0.7, "ipfs": 0.3},
                              duration_seconds=30.0)
        generator = drive(config)
        report = generator.finalize()
        assert report.tx_submitted == 0
        assert "transfer" not in report.ops
        # finalize() must be idempotent -- no side effects on the ops dict.
        assert generator.finalize().sim_dict()["ops"] == report.sim_dict()["ops"]


class TestLoad:
    def test_all_transfers_mine_below_capacity(self, drive):
        report = drive(small_config()).finalize()
        assert report.tx_submitted > 0
        assert report.tx_mined == report.tx_submitted
        assert report.errors_total == 0
        assert report.in_window_mined_fraction == 1.0
        # Confirmation latency is bounded by roughly two slots when the
        # producer keeps up.
        assert report.tx_confirmation["p99"] <= 24.0

    def test_offered_rate_is_honest(self, drive):
        # ~rate * duration arrivals must actually fire (the block producer
        # must not eat simulated time from the arrival process).
        config = small_config(rate=10.0, duration_seconds=100.0)
        report = drive(config).finalize()
        assert report.offered_requests == pytest.approx(1000, rel=0.1)

    def test_a_standalone_generator_fires_no_arrival_late(self, drive):
        # Nothing beside a standalone generator moves the clock inline, so
        # every arrival fires at its due time.
        report = drive(small_config()).finalize()
        assert report.offered_requests > 0
        assert report.late_arrivals == 0
        assert report.sim_dict()["late_arrivals"] == 0

    def test_deterministic_sim_metrics(self, drive):
        config = small_config()
        assert (drive(config).finalize().sim_dict()
                == drive(config).finalize().sim_dict())

    def test_seed_changes_schedule(self, drive):
        first = drive(small_config(seed=1)).finalize()
        second = drive(small_config(seed=2)).finalize()
        assert first.sim_dict() != second.sim_dict()

    def test_overload_builds_backlog(self, drive):
        # Offered far above the ~41 tx/s slot capacity (500 txs per 12 s
        # block): the backlog must show up as a saturated window and a
        # mempool that outgrows a block.
        config = small_config(clients=100, rate=100.0, duration_seconds=18.0,
                              mix={"transfer": 1.0})
        report = drive(config).finalize()
        assert report.tx_mined == report.tx_submitted  # drains eventually
        assert report.in_window_mined_fraction < 0.8
        assert report.mempool_max_depth > 500
        assert report.makespan_seconds > config.duration_seconds

    def test_a_thousand_clients_saturate_only_above_block_capacity(self, drive):
        # >= 1000 simulated clients on the simulated clock, one rate below
        # the ~41 tx/s block capacity and one well above it.  The window is
        # four whole slots, so a transfer below capacity mines inside it.
        def run(rate):
            config = LoadGenConfig(clients=1000, duration_seconds=48.0,
                                   rate=rate, seed=5)
            return drive(config).finalize()

        below, above = run(20.0), run(120.0)
        assert below.tx_submitted > 0
        assert below.in_window_mined_fraction == 1.0
        assert above.in_window_mined_fraction < 0.8
        assert above.mempool_max_depth > below.mempool_max_depth
        assert above.tx_confirmation["p99"] > below.tx_confirmation["p99"]

    def test_a_delayed_install_opens_the_window_late(self):
        stack = build_stack()
        try:
            scheduler = EventScheduler(stack.clock)
            generator = LoadGenerator(small_config(), stack=stack,
                                      scheduler=scheduler)
            start = stack.clock.now
            generator.install(delay=30.0)
            scheduler.spawn(slot_producer(stack, generator.busy), name="block-producer")
            offered_before_start = []
            scheduler.schedule(29.0, lambda: offered_before_start.append(generator.offered))
            scheduler.run()
            assert offered_before_start == [0]
            report = generator.finalize()
        finally:
            stack.close()
        assert report.offered_requests > 0
        assert report.tx_mined == report.tx_submitted > 0
        # The makespan counts from the delayed start, not from install().
        assert report.makespan_seconds == pytest.approx(
            stack.clock.now - start - 30.0)

    def test_the_registry_samples_the_saturation_counters(self, drive):
        generator = drive(small_config())
        report = generator.finalize()
        snapshot = generator.stack.registry.snapshot()

        def value(name):
            return snapshot[name]["series"][0]["value"]

        assert value("repro_loadgen_offered_total") == report.offered_requests
        assert value("repro_loadgen_tx_submitted_total") == report.tx_submitted
        assert value("repro_loadgen_tx_mined_total") == report.tx_mined
        assert value("repro_loadgen_outstanding_txs") == 0

    def test_refused_transfers_surface_as_errors(self, drive):
        # Clients funded with one wei: the node refuses every transfer, and
        # each refusal comes back through the gateway as its library error.
        report = drive(small_config(fund_wei=1)).finalize()
        assert report.errors_total > 0
        assert report.ops["transfer"]["successes"] == 0
        counted = sum(
            op["errors_by_class"].get("InsufficientFundsError", 0)
            for op in report.ops.values()
        )
        assert counted == report.errors_total

    def test_ipfs_and_read_ops_served(self, drive):
        report = drive(small_config()).finalize()
        assert report.ops["read"]["attempts"] > 0
        assert report.ops["ipfs"]["attempts"] > 0
        assert report.ops["ipfs"]["errors"] == 0

    def test_analytics_ops_without_a_replica_become_reads(self, drive):
        # A stack with no analytics replica attached: every drawn analytics
        # op must be re-drawn as a read, never surface as an error or an
        # analytics_* RPC failure.
        config = small_config(mix={"read": 0.3, "transfer": 0.4,
                                   "analytics": 0.3})
        report = drive(config).finalize()
        assert "analytics" not in report.ops
        assert report.ops["read"]["attempts"] > 0
        assert report.errors_total == 0

    def test_analytics_mix_is_deterministic(self, drive):
        config = small_config(mix={"read": 0.5, "analytics": 0.5},
                              duration_seconds=40.0)
        assert (drive(config).finalize().sim_dict()["ops"]
                == drive(config).finalize().sim_dict()["ops"])


class TestCluster:
    def test_a_cluster_stack_mints_through_leader_rotation(self, drive):
        """Every slot's block comes from the leader the schedule elects and
        reaches every replica by gossip: the heads agree when the drain ends,
        with no anti-entropy round run to make them."""
        generator = drive(small_config(clients=10, rate=1.0,
                                       duration_seconds=120.0,
                                       mix={"transfer": 1.0}),
                          cluster=ClusterConfig(replicas=3, seed=7))
        report = generator.finalize()
        cluster = generator.stack.cluster
        assert report.tx_mined == report.tx_submitted > 0
        assert cluster.heads_identical()
        chain = cluster.replicas[0].chain
        proposers = {str(chain.get_block(number).header.proposer)
                     for number in range(1, chain.height + 1)}
        assert len(proposers) == 3


class TestPresignedTransfers:
    """The ingest workload's fixture: a fresh funded node and signed transfers."""

    @pytest.mark.parametrize("num_txs, num_senders", [(0, 1), (1, 0)])
    def test_a_non_positive_count_is_refused(self, num_txs, num_senders):
        with pytest.raises(SimulationError, match="must be positive"):
            presigned_transfers(num_txs, num_senders, "presigned-refused")

    def test_each_sender_holds_five_ether_on_a_fresh_node(self):
        node, transactions = presigned_transfers(6, 3, "presigned-funded")
        senders = list(dict.fromkeys(tx.sender for tx in transactions))
        assert len(senders) == 3
        assert [node.get_balance(sender) for sender in senders] == [ether_to_wei(5)] * 3
        assert node.chain.height == 0

    def test_senders_fill_in_turn_with_consecutive_nonces(self):
        _, transactions = presigned_transfers(7, 3, "presigned-order")
        senders = list(dict.fromkeys(tx.sender for tx in transactions))
        assert [(senders.index(tx.sender), tx.nonce) for tx in transactions] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0)]
        assert len({tx.to for tx in transactions}) == 1
        assert {tx.value for tx in transactions} == {1}

    def test_a_label_names_one_set_of_signed_transfers(self):
        def hashes(label):
            return [tx.hash_hex for tx in presigned_transfers(4, 2, label)[1]]

        assert hashes("presigned-same") == hashes("presigned-same")
        assert not set(hashes("presigned-same")) & set(hashes("presigned-other"))

    def test_every_transfer_is_mined_on_its_node(self):
        node, transactions = presigned_transfers(12, 4, "presigned-mined")
        for tx in transactions:
            node.chain.submit_transaction(tx)
        node.chain.produce_blocks_until_empty()
        assert all(node.chain.get_receipt(tx.hash_hex).status for tx in transactions)
        assert node.get_balance(transactions[0].to) == 12
