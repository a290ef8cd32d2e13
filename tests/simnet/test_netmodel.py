"""Tests for the network models and their swarm/chain integration."""

import pytest

from repro.chain.chain import ChainConfig
from repro.chain.node import EthereumNode
from repro.chain.faucet import Faucet
from repro.chain.keys import KeyPair
from repro.contracts.registry import default_registry
from repro.errors import BlockNotFoundError, MempoolError
from repro.ipfs.node import IpfsNode
from repro.ipfs.swarm import Swarm
from repro.simnet.netmodel import CHAIN_ENDPOINT, LinkProfile, NetworkModel
from repro.simnet.profiles import NETWORK_PROFILES, make_network
from repro.utils.clock import SimulatedClock
from repro.utils.units import ether_to_wei


class TestLinkProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinkProfile(latency_seconds=-1)
        with pytest.raises(ValueError):
            LinkProfile(drop_probability=1.0)
        with pytest.raises(ValueError):
            LinkProfile(bandwidth_bytes_per_second=0)


class TestNetworkModel:
    def test_transfer_delay_includes_latency_and_serialisation(self):
        network = NetworkModel(LinkProfile(latency_seconds=0.5,
                                           bandwidth_bytes_per_second=1000.0))
        assert network.transfer_seconds("a", "b", 2000) == pytest.approx(2.5)

    def test_per_link_override_is_symmetric(self):
        network = NetworkModel(LinkProfile())
        slow = LinkProfile(latency_seconds=1.0)
        network.set_link("a", "b", slow)
        assert network.profile_for("b", "a") is slow
        assert network.profile_for("a", "c") == LinkProfile()

    def test_drops_are_deterministic_given_a_seed(self):
        def draws(seed):
            network = NetworkModel(LinkProfile(drop_probability=0.5), seed=seed)
            return [network.should_drop("a", "b") for _ in range(50)]

        assert draws(1) == draws(1)
        assert draws(1) != draws(2)

    def test_partition_and_heal(self):
        network = NetworkModel()
        network.partition([["a", "b"], ["c"]])
        assert network.can_reach("a", "b")
        assert not network.can_reach("a", "c")
        assert network.can_reach("a", "unlisted")
        partitioned = network.delivery_delay("a", "c")
        assert not partitioned.delivered
        assert partitioned.delay_seconds == 0.0  # refused connection, instant
        network.heal()
        assert network.can_reach("a", "c")

    def test_delivery_gives_up_after_max_retransmissions(self):
        network = NetworkModel(LinkProfile(drop_probability=0.95), seed=3,
                               max_retransmissions=2, retry_timeout_seconds=1.0)
        results = [network.delivery_delay("a", "b", 10) for _ in range(30)]
        failures = [result for result in results if not result.delivered]
        assert failures
        # A failed delivery still burned every retransmission timeout.
        assert all(f.delay_seconds == pytest.approx(2.0) for f in failures)
        assert network.stats.dropped > 0
        assert network.stats.retransmissions > 0

    def test_profiles_registry(self):
        assert NETWORK_PROFILES["ideal"] is None
        assert make_network("ideal") is None
        assert make_network("lossy", seed=1).default_profile.drop_probability == 0.15
        with pytest.raises(Exception):
            make_network("no-such-profile")


class TestSwarmIntegration:
    def _swarm(self, profile, seed=0):
        clock = SimulatedClock()
        network = NetworkModel(profile, seed=seed)
        swarm = Swarm(network=network, clock=clock)
        a = IpfsNode("a", swarm)
        b = IpfsNode("b", swarm)
        swarm.connect_all()
        return clock, swarm, a, b

    def test_fetch_advances_clock_by_link_delay(self):
        clock, swarm, a, b = self._swarm(
            LinkProfile(latency_seconds=1.0, bandwidth_bytes_per_second=100.0))
        added = a.add_bytes(b"x" * 200)
        payload = b.cat(added.cid)
        assert payload == b"x" * 200
        # One block of ~200+ bytes: 1s latency + serialisation time.
        assert clock.now > 1.0

    def test_partitioned_provider_is_unreachable(self):
        clock, swarm, a, b = self._swarm(LinkProfile())
        added = a.add_bytes(b"hello world")
        swarm.network.partition([[a.peer_id], [b.peer_id]])
        with pytest.raises(BlockNotFoundError):
            b.cat(added.cid)
        assert swarm.failed_fetch_attempts > 0
        swarm.network.heal()
        assert b.cat(added.cid) == b"hello world"

    def test_swarm_without_network_is_the_seed_swarm(self):
        swarm = Swarm()
        a = IpfsNode("a", swarm)
        b = IpfsNode("b", swarm)
        swarm.connect_all()
        added = a.add_bytes(b"payload")
        assert b.cat(added.cid) == b"payload"


class TestChainIngressIntegration:
    def _funded_node(self, network):
        node = EthereumNode(config=ChainConfig(), backend=default_registry(),
                            network=network)
        faucet = Faucet(node)
        keys = KeyPair.from_label("ingress-test")
        faucet.drip(keys.address, ether_to_wei(1))
        return node, keys

    def test_submission_pays_ingress_latency(self):
        network = NetworkModel(LinkProfile(latency_seconds=2.0))
        node, keys = self._funded_node(network)
        before = node.clock.now
        node.sign_and_send(keys, to=keys.address, value=1)
        assert node.clock.now - before == pytest.approx(2.0)
        assert len(node.chain.mempool) == 1

    def test_submission_lost_after_retransmissions_raises(self):
        network = NetworkModel(LinkProfile(drop_probability=0.99), seed=5,
                               max_retransmissions=1)
        node, keys = self._funded_node(network)
        with pytest.raises(MempoolError):
            for _ in range(20):
                node.sign_and_send(keys, to=keys.address, value=1)
        assert node.dropped_submissions >= 1

    def test_partitioned_sender_cannot_submit(self):
        network = NetworkModel(LinkProfile())
        node, keys = self._funded_node(network)
        network.partition([[keys.address], [CHAIN_ENDPOINT]])
        with pytest.raises(MempoolError):
            node.sign_and_send(keys, to=keys.address, value=1)


class TestMempoolStats:
    def test_depth_high_water_is_tracked(self):
        node = EthereumNode(config=ChainConfig(), backend=default_registry())
        faucet = Faucet(node)
        keys = KeyPair.from_label("mempool-stats")
        faucet.drip(keys.address, ether_to_wei(1))
        for _ in range(3):
            node.sign_and_send(keys, to=keys.address, value=1)
        stats = node.chain.mempool.stats()
        assert stats == {"depth": 3, "max_depth": 3, "total_added": 3}
        node.mine(1)
        stats = node.chain.mempool.stats()
        assert stats["depth"] == 0
        assert stats["max_depth"] == 3
        assert stats["total_added"] == 3
