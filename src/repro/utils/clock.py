"""A deterministic simulated clock.

Real-world OFL-W3 latency is dominated by waiting for block inclusion on
Sepolia (~12 s slots) and IPFS transfers.  To reproduce the execution-time
breakdown (Fig. 7) deterministically and instantly, every component that
"waits" does so against a :class:`SimulatedClock` rather than wall time.
The clock only moves when a component explicitly advances it, which makes
experiments reproducible and fast while preserving relative durations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List


ClockObserver = Callable[[float, float], None]


@dataclass
class SimulatedClock:
    """A monotonically non-decreasing virtual clock measured in seconds.

    Observers subscribed with :meth:`subscribe` are notified on every forward
    movement with ``(old_now, new_now)``.  The event scheduler and the
    scenario runner (``repro.simnet``) use this to sample time-series metrics
    (e.g. mempool depth) whenever any component -- even one deep inside
    ``wait_for_receipt`` -- moves simulated time.
    """

    start_time: float = 0.0
    _now: float = field(init=False)
    _observers: List[ClockObserver] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        self._now = float(self.start_time)

    @property
    def now(self) -> float:
        """Current virtual time in seconds since the epoch of the simulation."""
        return self._now

    def subscribe(self, observer: ClockObserver) -> ClockObserver:
        """Register ``observer(old_now, new_now)`` for every forward movement."""
        self._observers.append(observer)
        return observer

    def unsubscribe(self, observer: ClockObserver) -> None:
        """Remove a previously subscribed observer (no-op if absent)."""
        if observer in self._observers:
            self._observers.remove(observer)

    def _move_to(self, timestamp: float) -> float:
        old = self._now
        self._now = float(timestamp)
        if self._now > old:
            for observer in self._observers:
                observer(old, self._now)
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` (must be non-negative)."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        return self._move_to(self._now + float(seconds))

    def advance_to(self, timestamp: float) -> float:
        """Advance the clock to an absolute ``timestamp`` if it is in the future."""
        if timestamp > self._now:
            self._move_to(timestamp)
        return self._now
