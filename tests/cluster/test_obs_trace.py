"""Trace-context propagation across the cluster (satellite acceptance).

A transaction submitted on one replica must yield spans attributed to
*every* replica that executed it -- delivery, execution and receipt on each
peer, threaded into one tree via the trace context gossip messages carry --
and that attribution must survive a partition/heal reorg, because receipt
spans fire when a block is (re-)appended, not only when it is first mined.
"""

from __future__ import annotations

import pytest

from repro.simnet import ScenarioRunner, build_scenario
from repro.system import quick_config
from tests.oracles import replicas_for


def tiny_config(**overrides):
    base = dict(num_owners=2, num_samples=400, local_epochs=1)
    base.update(overrides)
    return quick_config(**base)


@pytest.fixture(scope="module")
def observed_partition_heal():
    runner = ScenarioRunner(build_scenario("partition_heal"),
                            config=tiny_config(), observability=True)
    report = runner.run()
    return runner.obs, report


class TestClusterTracePropagation:
    def test_sampled_tx_has_spans_on_every_replica(self, observed_partition_heal):
        obs, report = observed_partition_heal
        trace_id = obs.sample_trace_id()
        assert trace_id is not None and trace_id.startswith("0x")
        replicas = replicas_for(obs.tracer, trace_id)
        alive = sorted(row["name"] for row in
                       report.cluster_stats["replicas"] if row["alive"])
        assert replicas == alive, (
            f"trace {trace_id} missing replicas: {set(alive) - set(replicas)}")

    def test_every_replica_executed_and_receipted_the_sampled_tx(
            self, observed_partition_heal):
        obs, _ = observed_partition_heal
        trace_id = obs.sample_trace_id()
        spans = obs.tracer.spans_for(trace_id)
        by_replica = {}
        for span in spans:
            by_replica.setdefault(span.replica, set()).add(span.name)
        origin = next(r for r, names in by_replica.items()
                      if "tx.submit" in names)
        for replica, names in by_replica.items():
            assert "tx.receipt" in names, f"{replica} never receipted"
            if replica != origin:
                assert "gossip.deliver" in names, f"{replica} has no delivery"

    def test_cross_replica_spans_form_one_tree(self, observed_partition_heal):
        obs, _ = observed_partition_heal
        trace_id = obs.sample_trace_id()
        spans = obs.tracer.spans_for(trace_id)
        known = {span.span_id for span in spans}
        parented = [s for s in spans if s.parent_id in known]
        # gossip context propagation worked: the delivery spans (and the
        # per-replica chains hanging off them) all parent inside the trace.
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 1
        assert roots[0].name == "tx.submit"
        assert len(parented) == len(spans) - 1

    def test_reorg_surfaces_as_structured_events(self, observed_partition_heal):
        obs, report = observed_partition_heal
        counts = obs.event_log.counts_by_kind()
        assert counts.get("cluster.partition", 0) == 1
        assert counts.get("cluster.heal", 0) == 1
        assert counts.get("chain.reorg", 0) >= 1
        assert counts["chain.reorg"] == report.cluster_stats["reorgs_total"]
        reorg = obs.event_log.events(kind="chain.reorg")[0]
        assert {"kind", "seq", "sim_time", "replica", "abandoned",
                "adopted", "fork_height", "new_head"} <= set(reorg)

    def test_reorged_replicas_still_attribute_receipt_spans(
            self, observed_partition_heal):
        """Receipts re-fire on adoption, so losers of the fork keep full traces."""
        obs, _ = observed_partition_heal
        reorged = {event["replica"]
                   for event in obs.event_log.events(kind="chain.reorg")}
        assert reorged
        trace_id = obs.sample_trace_id()
        for replica in reorged:
            names = {s.name for s in obs.tracer.spans_for(trace_id)
                     if s.replica == replica}
            assert "tx.receipt" in names

    def test_report_embeds_the_obs_summary(self, observed_partition_heal):
        obs, report = observed_partition_heal
        assert report.obs_stats is not None
        payload = report.to_dict()["obs"]
        assert payload["spans_by_name"] == obs.tracer.span_counts()
        assert payload["events_by_kind"] == obs.event_log.counts_by_kind()
        assert payload["spans_total"] > 0
        assert payload["sample_trace_id"] == obs.sample_trace_id()
