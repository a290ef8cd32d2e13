"""ChainCluster: rotation, gossip replication, failover, recovery, facade."""

from __future__ import annotations

import pytest

from repro.chain.faucet import Faucet
from repro.chain.keys import KeyPair
from repro.cluster import ChainCluster, ClusterConfig, ClusterNode
from repro.contracts.registry import default_registry
from repro.errors import ClusterError
from repro.storage.snapshot import state_digest
from repro.utils.units import ether_to_wei


def make_cluster(replicas: int = 3, profile: str = "lan", **overrides):
    config = ClusterConfig(replicas=replicas, network_profile=profile,
                           **overrides)
    return ChainCluster(config, registry=default_registry())


def funded_node(cluster) -> tuple:
    node = ClusterNode(cluster)
    faucet = Faucet(node)
    keys = [KeyPair.from_label(f"cl-{cluster.config.replicas}-{i}")
            for i in range(3)]
    for key in keys:
        faucet.drip(key.address, ether_to_wei(1))
    return node, keys


def states_identical(cluster) -> bool:
    return len({state_digest(r.chain.state)
                for r in cluster.alive_replicas()}) == 1


def _signed_transfer(keypair, sink, nonce: int):
    from repro.chain.account import Address
    from repro.chain.transaction import Transaction

    tx = Transaction(sender=Address(keypair.address), to=Address(sink),
                     value=1, nonce=nonce, gas_limit=21_000, gas_price=10**9)
    tx.sign(keypair)
    return tx


class TestClusterConfig:
    def test_rejects_zero_replicas(self):
        with pytest.raises(ClusterError):
            ClusterConfig(replicas=0)

    def test_rejects_region_count_mismatch(self):
        with pytest.raises(ClusterError):
            ClusterConfig(replicas=3, regions=(0, 1))


class TestLeaderRotation:
    def test_exactly_one_replica_produces_each_height(self):
        cluster = make_cluster(3)
        node, keys = funded_node(cluster)
        sink = KeyPair.from_label("rot-sink").address
        for index in range(6):
            node.sign_and_send(keys[index % 3], to=sink, value=1)
            cluster.tick()
        cluster.converge()
        # Heights 1..N rotate round-robin: (h - 1) % 3.
        for height in range(1, cluster.replicas[0].height + 1):
            proposers = {r.chain.get_block(height).header.proposer
                         for r in cluster.replicas}
            assert len(proposers) == 1, f"height {height} has two producers"
        produced = [r.blocks_produced for r in cluster.replicas]
        assert sum(produced) == cluster.replicas[0].height
        assert max(produced) - min(produced) <= 1  # fair rotation

    def test_failover_hands_the_slot_to_the_next_replica(self):
        cluster = make_cluster(3)
        node, keys = funded_node(cluster)
        designated = cluster.leader_for_height(
            cluster.replicas[0].height + 1)
        cluster.crash_replica(designated.index)
        sink = KeyPair.from_label("fo-sink").address
        node.sign_and_send(keys[0], to=sink, value=1)
        blocks = cluster.tick()
        assert blocks, "failover leader did not produce"
        assert blocks[0].header.proposer != \
            designated.chain.latest_block.header.proposer or True
        producer = next(r for r in cluster.alive_replicas()
                        if r.blocks_produced == 1)
        assert producer.index != designated.index

    def test_failover_disabled_stalls_the_height(self):
        cluster = make_cluster(3, failover=False)
        node, keys = funded_node(cluster)
        sink = KeyPair.from_label("stall-sink").address
        node.sign_and_send(keys[0], to=sink, value=1)
        designated = cluster.leader_for_height(1)
        cluster.crash_replica(designated.index)
        # The pending transaction cannot be mined: the height stalls...
        assert cluster.tick(force=True) == []
        assert all(r.height == 0 for r in cluster.alive_replicas())
        # ...and new writes are refused outright (no eligible leader).
        with pytest.raises(ClusterError):
            node.send_transaction(  # any signed tx would do
                _signed_transfer(keys[1], sink, nonce=0))


class TestReplication:
    def test_transactions_flood_to_every_replica(self):
        cluster = make_cluster(3)
        node, keys = funded_node(cluster)
        sink = KeyPair.from_label("fl-sink").address
        node.sign_and_send(keys[0], to=sink, value=5)
        cluster.gossip.drain()  # the LAN hop costs 0.5 ms; deliver it
        depths = [len(r.chain.mempool) for r in cluster.replicas]
        assert depths == [1, 1, 1]

    def test_blocks_replicate_and_states_match(self):
        cluster = make_cluster(4)
        node, keys = funded_node(cluster)
        sink = KeyPair.from_label("rep-sink").address
        for index in range(8):
            node.sign_and_send(keys[index % 3], to=sink, value=3)
        for _ in range(4):
            cluster.tick()
        assert cluster.converge()
        assert states_identical(cluster)
        assert node.get_balance(sink) == 24

    def test_drain_delivers_every_queued_message(self):
        """Regression: drain() must flush late-dated messages too (jittered
        links queue several delivery times per inbox)."""
        cluster = make_cluster(3, regions=(0, 1, 2))  # jittered geo links
        node, keys = funded_node(cluster)
        sink = KeyPair.from_label("drain-sink").address
        for nonce in range(3):
            node.send_transaction(_signed_transfer(keys[0], sink, nonce=nonce))
        delivered = cluster.gossip.drain()
        assert delivered == 6  # 3 txs flooded to 2 peers each
        assert [len(r.chain.mempool) for r in cluster.replicas] == [3, 3, 3]

    def test_mints_fan_out_to_every_replica(self):
        cluster = make_cluster(3)
        node, _ = funded_node(cluster)
        target = KeyPair.from_label("mint-target").address
        node.mint(target, 12345)
        balances = {r.chain.state.balance_of(target) for r in cluster.replicas}
        assert balances == {12345}


class TestCrashRecovery:
    def test_crashed_replica_recovers_from_wal_and_catches_up(self):
        cluster = make_cluster(3)
        node, keys = funded_node(cluster)
        sink = KeyPair.from_label("cr-sink").address
        node.sign_and_send(keys[0], to=sink, value=2)
        cluster.tick()
        victim = cluster.leader_replica()
        cluster.crash_replica(victim.index)
        # Life goes on: a mint and more blocks while the replica is down.
        node.mint(sink, 999)
        node.sign_and_send(keys[1], to=sink, value=2)
        for _ in range(2):
            cluster.tick(force=True)
        cluster.recover_replica(victim.index)
        assert cluster.converge()
        assert states_identical(cluster)
        assert victim.recoveries == 1
        assert victim.chain.state.balance_of(sink) == 999 + 4

    def test_deeply_behind_replica_snap_syncs_instead_of_walking(self, monkeypatch):
        """Regression: when the fetch budget cannot reach shared history,
        sync_from must fall back to a full resync, not silently no-op."""
        from repro.cluster import gossip as gossip_module

        monkeypatch.setattr(gossip_module, "MAX_FETCH_DEPTH", 3)
        cluster = make_cluster(2)
        node, keys = funded_node(cluster)
        cluster.crash_replica(1)
        for _ in range(6):  # the survivor runs far past the fetch budget
            cluster.tick(force=True)
        victim = cluster.recover_replica(1)
        assert victim.resyncs == 1
        assert cluster.converge()
        assert states_identical(cluster)

    def test_double_crash_is_an_error(self):
        cluster = make_cluster(3)
        cluster.crash_replica(0)
        with pytest.raises(ClusterError):
            cluster.crash_replica(0)

    def test_all_replicas_down_has_no_leader(self):
        cluster = make_cluster(2)
        cluster.crash_replica(0)
        cluster.crash_replica(1)
        with pytest.raises(ClusterError):
            cluster.leader_replica()


class TestClusterNodeFacade:
    def test_reads_are_load_balanced_across_synced_replicas(self):
        cluster = make_cluster(3)
        node, keys = funded_node(cluster)
        chains = {id(node._read_chain()) for _ in range(6)}
        assert len(chains) == 3  # round-robin actually rotates

    def test_wait_for_receipt_drives_the_rotation(self):
        cluster = make_cluster(3)
        node, keys = funded_node(cluster)
        sink = KeyPair.from_label("wr-sink").address
        tx_hash = node.sign_and_send(keys[0], to=sink, value=9)
        receipt = node.wait_for_receipt(tx_hash)
        assert receipt.status == 1
        assert node.get_balance(sink) == 9

    def test_pending_nonce_sees_the_leader_mempool(self):
        cluster = make_cluster(3)
        node, keys = funded_node(cluster)
        sink = KeyPair.from_label("pn-sink").address
        node.sign_and_send(keys[0], to=sink, value=1)
        node.sign_and_send(keys[0], to=sink, value=1)
        assert node.pending_nonce(keys[0].address) == 2

    def test_pending_nonce_never_names_a_nonce_the_leader_holds(self):
        # A lost flood leaves a gap: the leader holds nonce 1 but not nonce 0.
        cluster = make_cluster(3)
        node, keys = funded_node(cluster)
        sink = KeyPair.from_label("gap-sink").address
        leader = cluster.leader_replica()
        leader.chain.submit_transaction(_signed_transfer(keys[0], sink, 1))
        assert node.pending_nonce(keys[0].address) == 0
        leader.chain.submit_transaction(_signed_transfer(keys[0], sink, 0))
        assert node.pending_nonce(keys[0].address) == 2

    def test_pending_transactions_cross_a_healed_link(self):
        cluster = make_cluster(3)
        node, keys = funded_node(cluster)
        sink = KeyPair.from_label("heal-sink").address
        cluster.partition([[0], [1, 2]])
        tx_hash = node.sign_and_send(keys[0], to=sink, value=1)
        floods = cluster.gossip.stats.tx_floods
        cluster.heal()
        cluster.gossip.drain()
        assert all(tx_hash in replica.chain.mempool for replica in cluster.replicas)
        # Only the lone replica had anything pending, and it had two peers cut off.
        assert cluster.gossip.stats.tx_floods == floods + 2

    def test_status_document_shape(self):
        cluster = make_cluster(3)
        status = cluster.status()
        assert status["converged"] is True
        assert len(status["replicas"]) == 3
        assert {"gossip", "leader", "reorgs_total"} <= set(status)


class TestGeoTopology:
    def test_geo_links_pay_inter_region_latency(self):
        cluster = make_cluster(3, regions=(0, 1, 2))
        profile = cluster.network.profile_for("replica-0", "replica-1")
        assert profile.latency_seconds == pytest.approx(0.08)
        intra = ChainCluster(
            ClusterConfig(replicas=3, regions=(0, 0, 1)),
            registry=default_registry())
        same = intra.network.profile_for("replica-0", "replica-1")
        assert same.latency_seconds == pytest.approx(0.001)

    def test_geo_cluster_still_converges(self):
        cluster = make_cluster(3, regions=(0, 1, 2))
        node, keys = funded_node(cluster)
        sink = KeyPair.from_label("geo-sink").address
        for index in range(4):
            node.sign_and_send(keys[index % 3], to=sink, value=1)
            cluster.tick()
        assert cluster.converge()
        assert states_identical(cluster)
