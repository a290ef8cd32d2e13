"""The ``obs_*`` RPC namespace and the unified cache-stat spelling.

Satellite coverage: ``obs_cacheStats`` is *the* cache-stat spelling;
``storage_stats`` carries the storage cache's same counters under ``cache``.
"""

from __future__ import annotations

import pytest

from repro.chain import KeyPair
from repro.chain.account import checksum_cache
from repro.rpc import INVALID_PARAMS, JsonRpcError
from repro.storage import StorageEngine
from repro.system.stack import build_stack
from repro.utils.units import ether_to_wei
from tests.oracles import rpc_call

KEYS = KeyPair.from_label("rpc-obs-alice")


@pytest.fixture()
def observed_gateway():
    stack = build_stack(storage=StorageEngine(), observability=True)
    stack.faucet.drip(KEYS.address, ether_to_wei(2))
    stack.node.wait_for_receipt(
        stack.node.sign_and_send(KEYS, to="0x" + "77" * 20, value=1))
    return stack.gateway, stack.obs, stack.engine


class TestObsMethods:
    def test_namespace_is_mounted(self, observed_gateway):
        gateway, _, _ = observed_gateway
        mounted = [m for m in gateway.methods() if m.startswith("obs_")]
        assert mounted == ["obs_cacheStats", "obs_events", "obs_metrics",
                           "obs_metricsJson", "obs_top", "obs_trace",
                           "obs_traces"]

    def test_metrics_renders_prometheus_text(self, observed_gateway):
        gateway, _, _ = observed_gateway
        text = rpc_call(gateway, "obs_metrics")
        assert "# TYPE repro_rpc_requests_total counter" in text
        assert "repro_cache_hits_total" in text
        assert "repro_chain_height" in text

    def test_metrics_json_matches_the_registry_snapshot(self, observed_gateway):
        gateway, obs, _ = observed_gateway
        result = rpc_call(gateway, "obs_metricsJson")
        snapshot = obs.registry.snapshot()
        assert list(result) == list(snapshot)
        # the dispatch itself is metered, so the repro_rpc_* families move
        # between the two samples; everything else must match exactly.
        for name in snapshot:
            if name.startswith("repro_rpc_"):
                assert result[name]["type"] == snapshot[name]["type"]
            else:
                assert result[name] == snapshot[name]

    def test_trace_and_traces_surface_the_sampled_tx(self, observed_gateway):
        gateway, obs, _ = observed_gateway
        traces = rpc_call(gateway, "obs_traces")
        assert traces and traces[0]["spans"] > 0
        tree = rpc_call(gateway, "obs_trace")
        assert tree[0]["span"]["trace_id"] == obs.sample_trace_id()
        names = {node["span"]["name"] for node in _walk(tree)}
        assert {"tx.submit", "tx.execute", "tx.receipt"} <= names

    def test_top_returns_the_phase_cost_table(self, observed_gateway):
        gateway, _, _ = observed_gateway
        rows = rpc_call(gateway, "obs_top")
        assert {row["phase"] for row in rows} >= {"chain.verify",
                                                  "chain.execute",
                                                  "chain.persist"}
        assert all(row["calls"] >= 1 for row in rows)

    def test_events_defaults_to_the_empty_quiet_run(self, observed_gateway):
        gateway, _, _ = observed_gateway
        assert rpc_call(gateway, "obs_events") == []

    @pytest.mark.parametrize("method,param", [
        ("obs_traces", "limit"), ("obs_top", "count"), ("obs_events", "limit"),
    ])
    def test_non_positive_limits_are_invalid_params(self, observed_gateway,
                                                    method, param):
        gateway, _, _ = observed_gateway
        with pytest.raises(JsonRpcError) as excinfo:
            rpc_call(gateway, method, **{param: 0})
        assert excinfo.value.code == INVALID_PARAMS


class TestUnifiedCacheStats:
    def test_obs_cache_stats_is_the_one_spelling(self, observed_gateway):
        gateway, _, engine = observed_gateway
        stats = rpc_call(gateway, "obs_cacheStats")
        assert set(stats) == {"address_checksum", "storage", "rpc_reply"}
        assert stats["storage"] == engine.cache.snapshot()
        assert stats["rpc_reply"] == gateway.replies.snapshot()
        assert stats["address_checksum"] == checksum_cache().snapshot()

    def test_storage_stats_has_the_same_cache_counters(self, observed_gateway):
        gateway, _, _ = observed_gateway
        assert "storage_cacheStats" not in gateway.methods()
        assert rpc_call(gateway, "storage_stats")["cache"] == \
            rpc_call(gateway, "obs_cacheStats")["storage"]


def _walk(nodes):
    for node in nodes:
        yield node
        yield from _walk(node["children"])
