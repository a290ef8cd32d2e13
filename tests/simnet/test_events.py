"""Tests for the discrete-event scheduler (repro.simnet.events).

Includes the property tests required for the clock + scheduler pair: events
fire in timestamp order with deterministic insertion-order tie-breaking
regardless of the order they were scheduled in.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.simnet import events
from repro.simnet.events import EventScheduler
from repro.utils.clock import SimulatedClock


class TestScheduling:
    def test_events_fire_in_timestamp_order(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(5.0, lambda: fired.append("late"))
        scheduler.schedule(1.0, lambda: fired.append("early"))
        scheduler.schedule(3.0, lambda: fired.append("middle"))
        scheduler.run()
        assert fired == ["early", "middle", "late"]
        assert scheduler.clock.now == 5.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulerError):
            EventScheduler().schedule(-1.0, lambda: None)

    def test_external_clock_jump_fires_events_late_but_in_order(self):
        # A legacy component advancing the shared clock past pending events
        # must not deadlock or reorder the queue.
        clock = SimulatedClock()
        scheduler = EventScheduler(clock)
        fired = []
        scheduler.schedule(1.0, lambda: fired.append("first"))
        scheduler.schedule(2.0, lambda: fired.append("second"))
        clock.advance(100.0)
        scheduler.run()
        assert fired == ["first", "second"]
        assert clock.now == 100.0  # never moves backwards

    def test_event_budget_guards_runaway_processes(self, monkeypatch):
        monkeypatch.setattr(events, "EVENT_BUDGET", 50)
        scheduler = EventScheduler()

        def forever():
            while True:
                yield 1.0

        scheduler.spawn(forever())
        with pytest.raises(SchedulerError):
            scheduler.run()


class TestOrderingProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_events_fire_sorted_by_time_then_insertion(self, specs):
        scheduler = EventScheduler()
        fired = []
        for index, time in enumerate(specs):
            scheduler.schedule_at(time, (lambda i=index: fired.append(i)))
        scheduler.run()
        expected = [
            index for index, _ in sorted(enumerate(specs), key=lambda item: (item[1], item[0]))
        ]
        assert fired == expected

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=40),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_scheduling_order_of_distinct_keys_is_irrelevant(self, specs, shuffler):
        # Deterministic replay: shuffling the schedule() calls must not change
        # the execution order of events whose times differ; equal times keep
        # their original insertion (seq) order.
        def run(ordering):
            scheduler = EventScheduler()
            fired = []
            for original_index in ordering:
                scheduler.schedule_at(
                    specs[original_index], (lambda i=original_index: fired.append(i)))
            scheduler.run()
            return [specs[i] for i in fired]

        ordering = list(range(len(specs)))
        shuffled = list(ordering)
        shuffler.shuffle(shuffled)
        assert run(ordering) == run(shuffled)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
                    max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_clock_is_monotone_across_any_schedule(self, times):
        scheduler = EventScheduler()
        observed = []
        for time in times:
            scheduler.schedule_at(time, lambda: observed.append(scheduler.clock.now))
        scheduler.run()
        assert observed == sorted(observed)


class TestProcesses:
    def test_process_yields_delays(self):
        scheduler = EventScheduler()
        trace = []

        def worker():
            trace.append(("start", scheduler.clock.now))
            yield 5.0
            trace.append(("mid", scheduler.clock.now))
            yield 2.5
            trace.append(("end", scheduler.clock.now))
            return "done"

        process = scheduler.spawn(worker())
        scheduler.run()
        assert process.done and process.result == "done"
        assert trace == [("start", 0.0), ("mid", 5.0), ("end", 7.5)]

    def test_processes_interleave_deterministically(self):
        scheduler = EventScheduler()
        trace = []

        def worker(name, delay):
            for step in range(3):
                trace.append((name, step, scheduler.clock.now))
                yield delay

        scheduler.spawn(worker("a", 2.0))
        scheduler.spawn(worker("b", 3.0))
        scheduler.run()
        assert trace == [
            ("a", 0, 0.0), ("b", 0, 0.0),
            ("a", 1, 2.0), ("b", 1, 3.0),
            ("a", 2, 4.0), ("b", 2, 6.0),
        ]

    def test_process_join(self):
        scheduler = EventScheduler()
        trace = []

        def child():
            yield 10.0
            trace.append(("child-done", scheduler.clock.now))
            return 42

        def parent(child_process):
            yield 1.0
            trace.append(("parent-waiting", scheduler.clock.now))
            yield child_process
            trace.append(("parent-resumed", scheduler.clock.now, child_process.result))

        child_process = scheduler.spawn(child())
        scheduler.spawn(parent(child_process))
        scheduler.run()
        assert trace == [
            ("parent-waiting", 1.0),
            ("child-done", 10.0),
            ("parent-resumed", 10.0, 42),
        ]

    def test_process_error_propagates(self):
        scheduler = EventScheduler()

        def broken():
            yield 1.0
            raise RuntimeError("boom")

        process = scheduler.spawn(broken())
        with pytest.raises(RuntimeError, match="boom"):
            scheduler.run()
        assert process.done
        assert isinstance(process.error, RuntimeError)


class TestClockObservers:
    def test_observer_sees_every_forward_move(self):
        clock = SimulatedClock()
        moves = []
        clock.subscribe(lambda old, new: moves.append((old, new)))
        clock.advance(3.0)
        clock.advance_to(10.0)
        clock.advance_to(5.0)  # no-op, never observed
        clock.advance(0.0)     # no movement, never observed
        assert moves == [(0.0, 3.0), (3.0, 10.0)]

    def test_unsubscribe(self):
        clock = SimulatedClock()
        moves = []
        observer = clock.subscribe(lambda old, new: moves.append(new))
        clock.advance(1.0)
        clock.unsubscribe(observer)
        clock.advance(1.0)
        assert moves == [1.0]
