"""The metric-naming gate the CI obs smoke step runs.

Every family a representative observed workload registers must obey the
conventions ``docs/observability.md`` documents: snake_case names,
counters ending ``_total``, duration histograms ending ``_seconds``.  The
registry enforces most of this at registration time; this test pins the
convention over the *actual* fleet of series the stack produces, so a new
adapter with an off-convention name fails CI instead of shipping.
"""

from __future__ import annotations

import re

import pytest

from repro.chain import KeyPair
from repro.cluster import ClusterConfig
from repro.loadgen import LoadGenConfig, LoadGenerator
from repro.system.stack import build_stack
from repro.utils.units import ether_to_wei

METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")
LABEL_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")


@pytest.fixture(scope="module")
def workload_registry():
    """A registry populated by loadgen + RPC + cluster + analytics traffic."""
    generator = LoadGenerator(
        LoadGenConfig(clients=10, rate=5.0, duration_seconds=30.0, seed=7),
        observability=True,
    )
    generator.run()
    obs = generator.obs

    # Cover the gossip/cluster and analytics families too: a tiny replicated
    # burst with a columnar replica on a follower.
    stack = build_stack(cluster=ClusterConfig(replicas=3, seed=7),
                        observability=obs, analytics=True)
    keys = KeyPair.from_label("metric-names")
    stack.faucet.drip(keys.address, ether_to_wei(1))
    stack.node.sign_and_send(keys, to="0x" + "55" * 20, value=1_000)
    stack.cluster.tick(force=True)
    stack.cluster.converge()
    return stack.registry


class TestMetricNames:
    def test_a_representative_family_fleet_is_registered(self, workload_registry):
        names = set(workload_registry.snapshot())
        assert {"repro_rpc_requests_total", "repro_loadgen_offered_total",
                "repro_mempool_depth", "repro_block_production_seconds",
                "repro_cache_hits_total", "repro_gossip_events_total",
                "repro_chain_height", "repro_analytics_lag_entries",
                "repro_analytics_rollbacks_total"} <= names

    def test_every_name_is_snake_case_and_repro_prefixed(self, workload_registry):
        for name, family in workload_registry.snapshot().items():
            assert METRIC_NAME_RE.match(name), f"bad metric name: {name}"
            assert name.startswith("repro_"), f"unprefixed metric: {name}"
            for series in family["series"]:
                for label in series["labels"]:
                    assert LABEL_NAME_RE.match(label), \
                        f"bad label name {label!r} on {name}"

    def test_counters_end_in_total(self, workload_registry):
        for name, family in workload_registry.snapshot().items():
            if family["type"] == "counter":
                assert name.endswith("_total"), f"counter without _total: {name}"
            else:
                assert not name.endswith("_total"), \
                    f"non-counter with _total: {name}"

    def test_histograms_end_in_seconds(self, workload_registry):
        for name, family in workload_registry.snapshot().items():
            if family["type"] == "histogram":
                assert name.endswith("_seconds"), \
                    f"duration histogram without _seconds: {name}"

    def test_rendered_exposition_lines_parse(self, workload_registry):
        sample = re.compile(
            r"^[a-z][a-z0-9_]*(\{[a-z0-9_]+=\"[^\"]*\"(,[a-z0-9_]+=\"[^\"]*\")*\})? "
            r"-?[0-9.e+-]+(inf)?$")
        for line in workload_registry.render_prometheus().splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE ")), line
                continue
            assert sample.match(line), f"unparseable exposition line: {line}"
