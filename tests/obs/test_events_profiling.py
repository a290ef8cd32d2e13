"""Structured event log (byte-stable JSONL) and per-phase profiling."""

from __future__ import annotations

import json

from repro.obs import ObsEventLog, PhaseProfiler
from repro.obs import events
from repro.utils.clock import SimulatedClock


class TestEventLog:
    def test_emit_stamps_kind_seq_and_sim_time(self):
        clock = SimulatedClock()
        log = ObsEventLog(clock=clock)
        clock.advance(3.5)
        event = log.emit("chain.reorg", depth=2, replica="r1")
        assert event == {"kind": "chain.reorg", "seq": 0, "sim_time": 3.5,
                         "depth": 2, "replica": "r1"}
        assert log.emit("cluster.heal")["seq"] == 1

    def test_equal_logs_serialize_byte_identically(self):
        def build():
            clock = SimulatedClock()
            log = ObsEventLog(clock=clock)
            log.emit("cluster.partition", groups=[[0, 1], [2, 3]])
            clock.advance(10)
            log.emit("chain.reorg", replica="r2", depth=1)
            return log

        first, second = build().to_jsonl(), build().to_jsonl()
        assert first == second
        assert first.endswith("\n")
        for line in first.splitlines():
            # canonical form: sorted keys, compact separators
            assert line == json.dumps(json.loads(line), sort_keys=True,
                                      separators=(",", ":"))

    def test_empty_log_serializes_to_empty_string(self):
        assert ObsEventLog().to_jsonl() == ""

    def test_events_filters_by_kind_and_keeps_the_tail(self):
        log = ObsEventLog()
        for i in range(5):
            log.emit("a", i=i)
        log.emit("b")
        assert [e["i"] for e in log.events(kind="a", limit=2)] == [3, 4]
        assert len(log.events()) == 6
        # returned dicts are copies, not live buffer entries
        log.events()[0]["kind"] = "mutated"
        assert log.events()[0]["kind"] == "a"

    def test_counts_by_kind_is_sorted(self):
        log = ObsEventLog()
        log.emit("zz")
        log.emit("aa")
        log.emit("zz")
        counts = log.counts_by_kind()
        assert counts == {"aa": 1, "zz": 2}
        assert list(counts) == ["aa", "zz"]

    def test_cap_drops_and_counts(self, monkeypatch):
        monkeypatch.setattr(events, "MAX_EVENTS", 1)
        log = ObsEventLog()
        assert log.emit("kept") is not None
        assert log.emit("dropped") is None
        assert log.dropped == 1
        assert len(log) == 1

    def test_write_creates_parents_and_round_trips(self, tmp_path):
        log = ObsEventLog()
        log.emit("node.restart", node="n0")
        target = log.write(tmp_path / "deep" / "events.jsonl")
        assert target.read_text() == log.to_jsonl()


class TestPhaseProfiler:
    def test_phase_context_manager_counts_calls(self):
        profiler = PhaseProfiler()
        for _ in range(3):
            with profiler.phase("tx.verify"):
                pass
        with profiler.phase("block.execute"):
            pass
        assert profiler.counts() == {"block.execute": 1, "tx.verify": 3}
        assert profiler.total_seconds() >= 0.0

    def test_phase_records_even_when_the_body_raises(self):
        profiler = PhaseProfiler()
        try:
            with profiler.phase("tx.verify"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert profiler.counts() == {"tx.verify": 1}

    def test_top_ranks_costliest_first_with_stable_row_shape(self):
        profiler = PhaseProfiler()
        profiler.record("cheap", 0.001)
        profiler.record("expensive", 0.01)
        profiler.record("expensive", 0.01)
        rows = profiler.top()
        assert [r["phase"] for r in rows] == ["expensive", "cheap"]
        top = rows[0]
        assert sorted(top) == ["calls", "fraction", "mean_ms", "phase",
                               "total_seconds"]
        assert top["calls"] == 2
        assert top["total_seconds"] == 0.02
        assert top["mean_ms"] == 10.0
        assert abs(top["fraction"] - 0.02 / 0.021) < 1e-3

    def test_top_honors_the_count_limit(self):
        profiler = PhaseProfiler()
        for i in range(5):
            profiler.record(f"phase_{i}", float(i + 1))
        assert len(profiler.top(2)) == 2
        assert profiler.top(2)[0]["phase"] == "phase_4"

    def test_render_top_is_a_table_or_a_placeholder(self):
        profiler = PhaseProfiler()
        assert profiler.render_top() == "no phases recorded"
        profiler.record("chain.persist", 0.5)
        text = profiler.render_top()
        assert text.splitlines()[0].split() == ["phase", "calls", "total",
                                                "s", "mean", "ms", "share"]
        assert "chain.persist" in text
        assert "100.0%" in text
