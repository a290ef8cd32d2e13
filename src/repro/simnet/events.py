"""A deterministic discrete-event scheduler on top of the simulated clock.

The seed's components advance the :class:`~repro.utils.clock.SimulatedClock`
in lock step: whoever is executing pushes time forward and everyone else
implicitly experiences the jump.  That is fine for one sequential workflow
but cannot express *concurrent* tasks racing for one mempool.  The scheduler
introduces the standard discrete-event loop:

* events are ``(timestamp, seq)``-ordered in a priority queue; ``seq`` is a
  monotonically increasing insertion counter, so ties are broken
  deterministically by scheduling order -- two runs with the same seed
  execute events in exactly the same order;
* generator-based *processes* wait by yielding a delay in simulated seconds
  (or ``None`` to just yield control, or another :class:`SimProcess` to join
  it) instead of advancing the clock themselves;
* because legacy components (e.g. ``wait_for_receipt``) still advance the
  shared clock inline, the scheduler never moves time backwards: an event
  whose timestamp has already been passed simply fires at the current time.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional

from repro.errors import SchedulerError
from repro.utils.clock import SimulatedClock


#: Events one :meth:`EventScheduler.run` executes before it calls the run a
#: runaway process and raises.
EVENT_BUDGET = 1_000_000


class ScheduledEvent:
    """One pending callback in the event queue."""

    __slots__ = ("time", "seq", "action", "name")

    def __init__(self, time: float, seq: int,
                 action: Callable[[], Any], name: str = "") -> None:
        self.time = float(time)
        self.seq = int(seq)
        self.action = action
        self.name = name

    @property
    def sort_key(self) -> tuple:
        """Deterministic total order: time, then insertion."""
        return (self.time, self.seq)

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return self.sort_key < other.sort_key

    def __repr__(self) -> str:
        return f"ScheduledEvent(t={self.time:.3f}, seq={self.seq}, name={self.name!r})"


class SimProcess:
    """A generator-driven activity: yields delays, runs to completion.

    The wrapped generator may yield:

    * a non-negative number -- sleep that many simulated seconds;
    * ``None`` -- yield control, resume at the same timestamp (after other
      events already scheduled for that timestamp);
    * another :class:`SimProcess` -- block until that process finishes.
    """

    def __init__(self, generator: Generator, name: str = "") -> None:
        self.generator = generator
        self.name = name
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._joiners: List["SimProcess"] = []

    def __repr__(self) -> str:
        return f"SimProcess(name={self.name!r}, done={self.done})"


class EventScheduler:
    """Priority-queue event loop over a shared :class:`SimulatedClock`."""

    def __init__(self, clock: Optional[SimulatedClock] = None) -> None:
        self.clock = clock or SimulatedClock()
        self._queue: List[ScheduledEvent] = []
        self._seq = 0
        self._executed = 0

    # -- introspection ---------------------------------------------------------

    @property
    def events_executed(self) -> int:
        """Number of events executed so far."""
        return self._executed

    def __len__(self) -> int:
        return len(self._queue)

    # -- scheduling ------------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], Any], *,
                 name: str = "") -> ScheduledEvent:
        """Schedule ``action`` to run ``delay`` simulated seconds from now."""
        if delay < 0:
            raise SchedulerError(f"cannot schedule an event in the past (delay={delay})")
        return self.schedule_at(self.clock.now + float(delay), action, name=name)

    def schedule_at(self, timestamp: float, action: Callable[[], Any], *,
                    name: str = "") -> ScheduledEvent:
        """Schedule ``action`` at an absolute simulated ``timestamp``.

        Timestamps already in the past are allowed (the event fires at the
        current clock time): legacy components may advance the shared clock
        past pending events, and refusing would deadlock their processes.
        """
        event = ScheduledEvent(timestamp, self._seq, action, name=name)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    # -- processes -------------------------------------------------------------

    def spawn(self, generator: Generator, *, delay: float = 0.0,
              name: str = "") -> SimProcess:
        """Start a generator process after ``delay`` simulated seconds."""
        process = SimProcess(generator, name=name)
        self.schedule(delay, lambda: self._resume(process), name=name or "process")
        return process

    def _resume(self, process: SimProcess) -> None:
        """Advance a process by one step and reschedule its continuation."""
        if process.done:
            return
        try:
            yielded = next(process.generator)
        except StopIteration as stop:
            self._finish(process, result=getattr(stop, "value", None))
            return
        except Exception as error:  # the process itself failed
            process.error = error
            self._finish(process, result=None)
            raise
        if yielded is None:
            self.schedule(0.0, lambda: self._resume(process), name=process.name)
        elif isinstance(yielded, SimProcess):
            if yielded.done:
                self.schedule(0.0, lambda: self._resume(process), name=process.name)
            else:
                yielded._joiners.append(process)  # resumed by _finish
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                raise SchedulerError(
                    f"process {process.name!r} yielded a negative delay: {yielded}")
            self.schedule(float(yielded), lambda: self._resume(process), name=process.name)
        else:
            raise SchedulerError(
                f"process {process.name!r} yielded {yielded!r}; expected a "
                "delay in seconds, None, or a SimProcess to join")

    def _finish(self, process: SimProcess, result: Any) -> None:
        process.done = True
        process.result = result
        joiners, process._joiners = process._joiners, []
        for joiner in joiners:
            self.schedule(0.0, lambda j=joiner: self._resume(j), name=joiner.name)

    # -- the loop --------------------------------------------------------------

    def step(self) -> Optional[ScheduledEvent]:
        """Pop and execute the next live event; returns it (or None if idle)."""
        while self._queue:
            event = heapq.heappop(self._queue)
            self.clock.advance_to(event.time)
            event.action()
            self._executed += 1
            return event
        return None

    def run(self) -> int:
        """Drain the queue; returns the number of events executed.

        :data:`EVENT_BUDGET` bounds work so a buggy self-rescheduling process
        cannot spin forever.
        """
        executed = 0
        while self._queue:
            if executed >= EVENT_BUDGET:
                raise SchedulerError(
                    f"event budget exhausted after {EVENT_BUDGET} events "
                    f"(simulated t={self.clock.now:.1f}s); likely a runaway process")
            self.step()
            executed += 1
        return executed
