"""Span tracing: implicit chaining, context propagation, trees, caps."""

from __future__ import annotations

from repro.obs import NULL_SPAN, Tracer
from repro.obs import tracing
from repro.utils.clock import SimulatedClock
from tests.oracles import replicas_for


class TestChaining:
    def test_spans_chain_implicitly_within_a_trace(self):
        tracer = Tracer()
        a = tracer.start_span("tx.submit", "t1")
        b = tracer.start_span("tx.execute", "t1")
        assert a.parent_id is None
        assert b.parent_id == a.span_id

    def test_chaining_is_scoped_per_replica(self):
        tracer = Tracer()
        a = tracer.start_span("tx.submit", "t1", replica="r0")
        b = tracer.start_span("tx.submit", "t1", replica="r1")
        assert b.parent_id is None  # r1's chain starts fresh
        c = tracer.start_span("tx.execute", "t1", replica="r1")
        assert c.parent_id == b.span_id
        d = tracer.start_span("tx.execute", "t1", replica="r0")
        assert d.parent_id == a.span_id

    def test_unlinked_spans_do_not_become_parents(self):
        tracer = Tracer()
        root = tracer.start_span("tx.submit", "t1")
        send = tracer.start_span("gossip.send", "t1", link=False)
        after = tracer.start_span("tx.execute", "t1")
        assert send.parent_id == root.span_id
        assert after.parent_id == root.span_id  # not the send span

    def test_explicit_parent_wins_over_implicit(self):
        tracer = Tracer()
        tracer.start_span("tx.submit", "t1")
        child = tracer.start_span("gossip.deliver", "t1", parent_id="s999999")
        assert child.parent_id == "s999999"


class TestContextPropagation:
    def test_context_round_trips_across_a_message(self):
        tracer = Tracer()
        send = tracer.start_span("gossip.send", "t1", link=False)
        ctx = tracer.context(send)
        assert ctx == {"parent": send.span_id, "trace_id": "t1"}
        deliver = tracer.start_span("gossip.deliver", ctx["trace_id"],
                                    parent_id=ctx["parent"], replica="r1")
        assert deliver.parent_id == send.span_id
        # and the peer's subsequent spans chain onto the delivery
        execute = tracer.start_span("tx.execute", "t1", replica="r1")
        assert execute.parent_id == deliver.span_id

    def test_null_span_has_no_context(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_SPANS", 0)
        tracer = Tracer()
        span = tracer.start_span("tx.submit", "t1")
        assert span is NULL_SPAN
        assert tracer.context(span) is None


class TestClocks:
    def test_spans_record_simulated_time(self):
        clock = SimulatedClock()
        tracer = Tracer(clock=clock)
        span = tracer.start_span("tx.submit", "t1")
        clock.advance(12.0)
        span.end(tracer.clock)
        assert span.start_sim == 0.0
        assert span.end_sim - span.start_sim == 12.0
        assert span.to_dict()["wall_ms"] >= 0.0

    def test_to_dict_can_drop_wall_clock_for_determinism(self):
        tracer = Tracer()
        span = tracer.start_span("tx.submit", "t1")
        span.end(tracer.clock)
        assert "wall_ms" in span.to_dict()
        assert "wall_ms" not in span.to_dict(include_wall=False)


class TestTrees:
    def _tx_trace(self, tracer):
        root = tracer.start_span("tx.submit", "t1", replica="r0")
        tracer.start_span("tx.mempool", "t1", replica="r0", link=False)
        send = tracer.start_span("gossip.send", "t1", replica="r0", link=False)
        ctx = tracer.context(send)
        tracer.start_span("gossip.deliver", "t1", parent_id=ctx["parent"],
                          replica="r1")
        tracer.start_span("tx.execute", "t1", replica="r1")
        return root

    def test_tree_nests_children_under_parents(self):
        tracer = Tracer()
        self._tx_trace(tracer)
        roots = tracer.tree("t1", include_wall=False)
        assert len(roots) == 1
        root = roots[0]
        assert root["span"]["name"] == "tx.submit"
        names = sorted(child["span"]["name"] for child in root["children"])
        assert names == ["gossip.send", "tx.mempool"]
        send = next(c for c in root["children"]
                    if c["span"]["name"] == "gossip.send")
        deliver = send["children"][0]
        assert deliver["span"]["name"] == "gossip.deliver"
        assert deliver["children"][0]["span"]["name"] == "tx.execute"

    def test_orphans_surface_as_extra_roots(self):
        tracer = Tracer()
        tracer.start_span("tx.submit", "t1")
        tracer.start_span("late", "t1", parent_id="s424242")
        assert len(tracer.tree("t1")) == 2

    def test_replicas_for_lists_every_replica_with_spans(self):
        tracer = Tracer()
        self._tx_trace(tracer)
        assert replicas_for(tracer, "t1") == ["r0", "r1"]

    def test_span_counts_are_sorted_and_deterministic(self):
        tracer = Tracer()
        self._tx_trace(tracer)
        counts = tracer.span_counts()
        assert counts == {"gossip.deliver": 1, "gossip.send": 1,
                          "tx.execute": 1, "tx.mempool": 1, "tx.submit": 1}
        assert list(counts) == sorted(counts)

    def test_render_leaves_wall_time_out(self):
        tracer = Tracer()
        self._tx_trace(tracer)
        assert all("wall_ms" in span.to_dict() for span in tracer.spans)
        assert "wall" not in tracer.render("t1")

    def test_render_mentions_every_span_and_replica(self):
        tracer = Tracer()
        self._tx_trace(tracer)
        text = tracer.render("t1")
        assert text.splitlines()[0] == "trace t1"
        for needle in ("tx.submit @r0", "gossip.deliver @r1", "tx.execute @r1"):
            assert needle in text


class TestCaps:
    def test_cap_returns_null_spans_and_counts_drops(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_SPANS", 2)
        tracer = Tracer()
        tracer.start_span("a", "t1")
        tracer.start_span("b", "t1")
        third = tracer.start_span("c", "t1")
        assert third is NULL_SPAN
        assert tracer.dropped == 1
        assert len(tracer.spans) == 2
        # null spans absorb the whole call-site protocol
        assert third.annotate("k", 1).end() is third
