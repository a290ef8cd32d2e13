"""Query routing: seed path untouched, explorer cache, RPC, cluster HTAP."""

import pytest

from repro.analytics import PAYMENT_EVENT, attach_analytics
from repro.chain import EthereumNode, Faucet, KeyPair
from repro.chain.events import LogFilter
from repro.chain.explorer import Explorer
from repro.cluster import ChainCluster, ClusterConfig, ClusterNode
from repro.contracts import default_registry
from repro.rpc import INVALID_PARAMS, JsonRpcError, JsonRpcGateway
from repro.utils.units import ether_to_wei, gwei_to_wei

GAS_PRICE = gwei_to_wei(1)


class TestSeedPath:
    def test_chains_start_with_no_replica(self):
        node = EthereumNode(backend=default_registry())
        assert node.chain.analytics is None

    def test_gateway_starts_with_no_replica(self):
        gateway = JsonRpcGateway(node=EthereumNode(backend=default_registry()))
        assert gateway.analytics is None
        assert "analytics_status" not in gateway.methods()


class TestExplorerCache:
    def test_same_tip_returns_the_cached_list(self, marketplace_node):
        node, _ = marketplace_node
        explorer = Explorer(node.chain)
        first = explorer.all_records()
        assert explorer.all_records() is first

    def test_growth_extends_the_cache_incrementally(self, marketplace_node):
        node, _ = marketplace_node
        explorer = Explorer(node.chain)
        before = explorer.all_records()
        cached_height = explorer._cache_height
        keys = KeyPair.from_label("an-buyer")
        node.wait_for_receipt(
            node.sign_and_send(keys, "0x" + "66" * 20, value=1,
                               gas_limit=21_000, gas_price=GAS_PRICE))
        after = explorer.all_records()
        assert after is not before
        assert len(after) == len(before) + 1
        assert after[:len(before)] == before
        assert explorer._cache_height == cached_height + 1
        assert explorer._cache_tip_hash == node.chain.latest_block.hash

    def test_cache_results_match_an_uncached_walk(self, marketplace_node):
        node, _ = marketplace_node
        explorer = Explorer(node.chain)
        explorer.all_records()
        fresh = Explorer(node.chain)
        assert explorer.fee_summary_by_kind() == fresh.fee_summary_by_kind()
        assert explorer.chain_statistics() == fresh.chain_statistics()

    def test_replica_routed_records_bypass_the_cache(self, marketplace_node):
        node, _ = marketplace_node
        explorer = Explorer(node.chain)
        scan = explorer.all_records()
        attach_analytics(node.chain)
        routed = explorer.all_records()
        assert routed is not scan
        assert [r.transaction.hash_hex for r in routed] == \
            [r.transaction.hash_hex for r in scan]


class TestRpcRouting:
    @pytest.fixture()
    def gateway(self, marketplace_node):
        node, _ = marketplace_node
        gateway = JsonRpcGateway(node=node)
        attach_analytics(node.chain)
        gateway.attach_analytics(lambda: node.chain.analytics)
        return gateway

    def test_attach_mounts_the_namespace(self, gateway):
        assert gateway.analytics is not None
        for method in ("analytics_status", "analytics_query",
                       "analytics_leaderboard", "analytics_feeSummary",
                       "analytics_chainStatistics", "analytics_series"):
            assert method in gateway.methods()

    def test_status_reports_freshness(self, gateway):
        status = gateway.call("analytics_status")
        assert status["lag_entries"] == 0
        assert status["height"] == gateway.eth.node.chain.height

    def test_query_is_parity_identical_to_eth_get_logs(self, gateway):
        criteria = {"event": PAYMENT_EVENT}
        assert gateway.call("analytics_query", criteria) == \
            gateway.call("eth_getLogs", criteria)

    def test_paged_query_matches_eth_get_logs_paging(self, gateway):
        criteria = {"event": PAYMENT_EVENT, "limit": 2}
        assert gateway.call("analytics_query", criteria) == \
            gateway.call("eth_getLogs", criteria)

    def test_eth_get_logs_itself_is_replica_served(self, gateway):
        """The transparent routing: eth_getLogs rides chain.logs -> feeder."""
        queries_before = gateway.analytics.queries
        gateway.call("eth_getLogs", {"event": PAYMENT_EVENT})
        assert gateway.analytics.queries == queries_before + 1

    def test_leaderboard_over_rpc(self, gateway):
        rows = gateway.call("analytics_leaderboard", name="payments", limit=2)
        assert len(rows) == 2
        assert rows[0]["total_wei"] >= rows[1]["total_wei"]

    def test_bad_leaderboard_params_are_invalid_params(self, gateway):
        with pytest.raises(JsonRpcError) as excinfo:
            gateway.call("analytics_leaderboard", name="bogus")
        assert excinfo.value.code == INVALID_PARAMS
        with pytest.raises(JsonRpcError) as excinfo:
            gateway.call("analytics_leaderboard", name="payments", limit=0)
        assert excinfo.value.code == INVALID_PARAMS

    def test_fee_summary_matches_the_scan_path(self, gateway):
        node = gateway.eth.node
        replica = gateway.call("analytics_feeSummary")
        feeder = node.chain.analytics
        node.chain.analytics = None
        try:
            assert replica == Explorer(node.chain).fee_summary_by_kind()
        finally:
            node.chain.analytics = feeder

    def test_series_over_rpc(self, gateway):
        series = gateway.call("analytics_series", event=PAYMENT_EVENT)
        assert len(series) == 3
        assert all("block_number" in point for point in series)


class TestClusterRouting:
    def _cluster(self, replicas=3):
        cluster = ChainCluster(
            ClusterConfig(replicas=replicas, network_profile="lan"),
            registry=default_registry())
        node = ClusterNode(cluster)
        faucet = Faucet(node)
        keys = KeyPair.from_label("an-cl-client")
        faucet.drip(keys.address, ether_to_wei(1))
        for _ in range(4):
            node.sign_and_send(keys, to="0x" + "31" * 20, value=5)
            cluster.tick()
        cluster.converge()
        return cluster, node

    def test_feeder_lands_on_a_follower(self):
        cluster, _ = self._cluster()
        feeder = cluster.attach_follower_analytics()
        carriers = [replica for replica in cluster.replicas
                    if replica.chain.analytics is not None]
        assert len(carriers) == 1
        assert carriers[0].analytics_enabled
        assert carriers[0].chain.analytics is feeder
        next_leader = cluster.leader_replica()
        assert carriers[0].index != next_leader.index
        assert feeder.store.height == carriers[0].height

    def test_follower_reads_match_the_leader_scan(self):
        cluster, _ = self._cluster()
        feeder = cluster.attach_follower_analytics()
        leader = cluster.leader_replica()
        assert feeder.logs(LogFilter()) == leader.chain.logs(LogFilter())

    def test_analytics_survives_crash_and_recover(self):
        cluster, node = self._cluster()
        cluster.attach_follower_analytics()
        carrier = next(replica for replica in cluster.replicas
                       if replica.analytics_enabled)
        old_feeder = carrier.chain.analytics
        cluster.crash_replica(carrier.index)
        keys = KeyPair.from_label("an-cl-client")
        node.sign_and_send(keys, to="0x" + "32" * 20, value=5)
        cluster.tick()
        cluster.recover_replica(carrier.index)
        cluster.converge()
        assert carrier.analytics_enabled
        feeder = carrier.chain.analytics
        assert feeder is not None and feeder is not old_feeder
        # The first routed read drains the blocks gossiped in since recovery.
        assert feeder.logs() == list(carrier.chain.iter_logs())
        assert feeder.store.height == carrier.height
