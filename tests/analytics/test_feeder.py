"""Tests for repro.analytics.feeder: WAL tailing, compaction, reorgs, crash."""

import pytest

from repro.analytics import (
    AnalyticsFeeder,
    attach_analytics,
    detach_analytics,
)
from repro.chain import EthereumNode, Faucet, KeyPair
from repro.chain.account import Address
from repro.chain.chain import Blockchain, ChainConfig
from repro.chain.events import LogFilter
from repro.chain.explorer import Explorer
from repro.chain.transaction import Transaction
from repro.contracts import default_registry
from repro.errors import AnalyticsError
from repro.obs import MetricsRegistry, Observability
from repro.storage import StorageConfig, StorageEngine, recover_node
from repro.utils.clock import SimulatedClock
from repro.utils.units import ether_to_wei, gwei_to_wei

from tests.analytics.conftest import build_marketplace_node

GAS_PRICE = gwei_to_wei(1)


def send_transfer(node, keys, value=1000):
    node.wait_for_receipt(
        node.sign_and_send(keys, "0x" + "55" * 20, value=value,
                           gas_limit=21_000, gas_price=GAS_PRICE))


class TestAttach:
    def test_attach_requires_a_durable_store(self):
        node = EthereumNode(backend=default_registry())
        with pytest.raises(AnalyticsError, match="no durable store"):
            attach_analytics(node.chain)
        assert node.chain.analytics is None

    def test_attach_backfills_existing_history(self, marketplace_node):
        node, _ = marketplace_node
        feeder = attach_analytics(node.chain)
        assert node.chain.analytics is feeder
        assert feeder.store.height == node.chain.height
        assert feeder.lag() == 0

    def test_detach_restores_the_scan_path(self, marketplace_node):
        node, _ = marketplace_node
        attach_analytics(node.chain)
        detach_analytics(node.chain)
        assert node.chain.analytics is None

    def test_status_shape(self, marketplace_node):
        node, _ = marketplace_node
        feeder = attach_analytics(node.chain)
        feeder.leaderboard("payments")
        status = feeder.status()
        assert status["height"] == node.chain.height
        assert status["lag_entries"] == 0
        assert status["applied_seq"] == status["wal_last_seq"]
        assert status["rollbacks"] == 0
        assert status["queries"] == 1
        assert status["transactions"] > 0 and status["logs"] > 0


class TestDrain:
    def test_new_blocks_raise_lag_until_drained(self, marketplace_node):
        node, _ = marketplace_node
        feeder = attach_analytics(node.chain)
        keys = KeyPair.from_label("an-buyer")
        send_transfer(node, keys)
        assert feeder.lag() > 0
        assert feeder.drain() == 1
        assert feeder.lag() == 0
        assert feeder.store.height == node.chain.height

    def test_drain_is_idempotent(self, marketplace_node):
        node, _ = marketplace_node
        feeder = attach_analytics(node.chain)
        assert feeder.drain() == 0
        assert feeder.drain() == 0

    def test_queries_are_read_your_writes_fresh(self, marketplace_node):
        """Routed reads drain first: no stale replica answers, ever."""
        node, _ = marketplace_node
        feeder = attach_analytics(node.chain)
        before = node.chain.log_count
        keys = KeyPair.from_label("an-owner-0")
        # A transfer emits no logs, but the replica height must advance.
        send_transfer(node, keys)
        assert len(feeder.logs()) == before
        assert feeder.store.height == node.chain.height

    def test_routed_reads_match_the_scan_path_live(self, marketplace_node):
        node, _ = marketplace_node
        feeder = attach_analytics(node.chain)
        scan_logs = list(node.chain.iter_logs())
        assert feeder.logs() == scan_logs
        assert node.chain.logs() == scan_logs  # routed through the replica


class TestCompactionCatchUp:
    def test_lagging_feeder_reconciles_from_the_archive(self, marketplace_node):
        """Blocks compacted away before the feeder saw them still arrive."""
        node, _ = marketplace_node
        feeder = attach_analytics(node.chain)
        feeder.drain()
        keys = KeyPair.from_label("an-buyer")
        for _ in range(3):
            send_transfer(node, keys)
        # Snapshot + compact: the three new block entries move from the live
        # log into the cold block archive before the feeder tails them.
        node.chain.store.snapshot(compact=True)
        assert feeder.store.height == node.chain.height - 3
        feeder.drain()
        assert feeder.store.height == node.chain.height
        assert feeder.lag() == 0
        assert feeder.logs() == list(node.chain.iter_logs())

    def test_backfill_rebuilds_from_scratch(self, marketplace_node):
        node, _ = marketplace_node
        feeder = attach_analytics(node.chain)
        node.chain.store.snapshot(compact=True)
        result = feeder.backfill()
        assert result["height"] == node.chain.height
        assert result["blocks_applied"] == node.chain.height
        assert feeder.logs() == list(node.chain.iter_logs())
        assert feeder.fee_summary_by_kind() == \
            Explorer(node.chain).fee_summary_by_kind()


def make_fork_chain(validator_label, clock):
    """A fork-choice chain over its own in-memory engine (cluster idiom)."""
    engine = StorageEngine()
    chain = Blockchain(
        config=ChainConfig(),
        backend=default_registry(),
        clock=clock,
        validators=[Address(KeyPair.from_label(validator_label).address)],
        genesis_timestamp=0.0,
        store=engine.chain_store(),
    )
    chain.enable_fork_choice(default_registry(), snapshot_interval=2)
    return chain


def fork_transfer(chain, keypair, nonce):
    tx = Transaction(
        sender=Address(keypair.address),
        to=Address(KeyPair.from_label("an-sink").address),
        value=1_000, nonce=nonce, gas_limit=21_000, gas_price=10**9,
    )
    tx.sign(keypair)
    return chain.submit_transaction(tx)


class TestReorgRollback:
    def _reorged_pair(self, obs=None):
        """Chain ``a`` (with a replica) adopts ``b``'s longer branch."""
        clock = SimulatedClock()
        a = make_fork_chain("an-val-a", clock)
        b = make_fork_chain("an-val-b", clock)
        key = KeyPair.from_label("an-forker")
        for chain in (a, b):
            chain.mint(key.address, ether_to_wei(1))
        shared = a.produce_block()
        b.apply_block(shared.to_record())
        feeder = attach_analytics(a, obs=obs)
        feeder.drain()

        # a mines one block with a tx; b (partitioned) mines two without it.
        fork_transfer(a, key, nonce=0)
        a.produce_block()
        feeder.drain()
        height_before = feeder.store.height
        for block in (b.produce_block(), b.produce_block()):
            a.apply_block(block.to_record())
        return a, b, feeder, height_before

    def test_reorg_truncates_then_replays_the_new_branch(self):
        a, b, feeder, height_before = self._reorged_pair()
        assert a.fork_stats()["reorgs"] == 1
        assert feeder.rollbacks == 1
        feeder.drain()
        assert feeder.store.height == a.height == height_before + 1
        assert feeder.store.block_hash_at(a.height) == a.latest_block.hash
        assert feeder.logs() == list(a.iter_logs())

    def test_post_reorg_queries_are_parity_identical(self):
        a, _, feeder, _ = self._reorged_pair()
        replica_summary = feeder.fee_summary_by_kind()
        replica_stats = feeder.chain_statistics()
        a.analytics = None
        try:
            explorer = Explorer(a)
            assert replica_summary == explorer.fee_summary_by_kind()
            assert replica_stats == explorer.chain_statistics()
        finally:
            a.analytics = feeder

    def test_rollback_emits_an_obs_event(self):
        obs = Observability(MetricsRegistry(), clock=SimulatedClock())
        _, _, feeder, _ = self._reorged_pair(obs=obs)
        events = obs.event_log.events(kind="analytics.rollback")
        assert len(events) == 1
        assert events[0]["removed_blocks"] == 1
        assert events[0]["removed_transactions"] == 1

    def test_status_counts_the_rollback(self):
        _, _, feeder, _ = self._reorged_pair()
        feeder.drain()
        assert feeder.status()["rollbacks"] == 1


class TestCrashRecovery:
    def test_fresh_attach_after_kill_minus_nine_backfills(self, tmp_path):
        """The replica is in-memory: recovery is a fresh attach + backfill."""
        config = StorageConfig(backend="log", directory=str(tmp_path / "store"),
                               snapshot_interval_blocks=4)
        node, engine = self._run_and_crash(config)
        truth = {
            "logs": list(node.chain.iter_logs()),
            "summary": Explorer(node.chain).fee_summary_by_kind(),
            "height": node.chain.height,
        }
        engine.close()  # kill -9: the feeder's store dies with the process

        revived = recover_node(StorageConfig(backend="log",
                                             directory=str(tmp_path / "store")),
                               backend=default_registry())
        feeder = attach_analytics(revived.chain)
        assert feeder.store.height == truth["height"]
        assert feeder.logs() == truth["logs"]
        assert feeder.fee_summary_by_kind() == truth["summary"]
        # Parity against the revived chain's own scan path too.
        revived.chain.analytics = None
        try:
            assert feeder.logs(LogFilter()) == revived.chain.logs(LogFilter())
        finally:
            revived.chain.analytics = feeder
        revived.storage.close()

    @staticmethod
    def _run_and_crash(config):
        engine = StorageEngine(config)
        node = EthereumNode(backend=default_registry(), storage=engine)
        faucet = Faucet(node)
        keys = KeyPair.from_label("an-crash")
        faucet.drip(keys.address, ether_to_wei(1))
        attach_analytics(node.chain)  # a replica was live before the crash
        for _ in range(6):
            send_transfer(node, keys)
        return node, engine


class TestFeederValidation:
    def test_broken_linkage_is_rejected(self, marketplace_node):
        node, other_engine = build_marketplace_node(label="an-other")
        node_a, _ = marketplace_node
        feeder = AnalyticsFeeder(node_a.chain.store.engine.wal)
        feeder.drain()
        # Feed it a block from an unrelated chain at the next height.
        foreign = node.chain.get_block(node_a.chain.height + 1) \
            if node.chain.height > node_a.chain.height else None
        if foreign is None:
            send_transfer(node, KeyPair.from_label("an-other-buyer"))
            foreign = node.chain.get_block(node_a.chain.height + 1)
        with pytest.raises(AnalyticsError, match="broken block linkage"):
            feeder._apply_block_record_object(foreign)
