"""The :class:`Observability` facade every subsystem hooks into.

One instance is what ``--obs`` adds to a stack: a :class:`Tracer`, an
:class:`ObsEventLog` and a :class:`PhaseProfiler`, hooked onto the chain,
cluster, gossip layer, replicas and analytics feeder as their ``.obs``.  The
:class:`MetricsRegistry` is not its own: every stack has one
(``Stack.registry``, fed by one collector that samples the live stack), and
the facade records its push metrics into that.

**Off by default: a null object, not a ``None``.**  Nothing in the repo
constructs an ``Observability`` unless a user passes ``--obs`` /
``observability=True``; until one is attached, every instrumented
component's ``.obs`` is the stateless :data:`NULL_OBSERVABILITY`, whose
hooks do nothing, so each call site has one body and no ``obs`` branch.
Sized on ``ingest``: the no-op calls cost 1.6 us of a 1 540 us
transaction, while a real always-on facade holds +5.5 MB of spans after
3 000 transfers (~23 MB at the 50 000-span cap) and breaks the
``peak_rss_mb`` bound -- which is why the default records nothing.  The
seed's behavior -- down to the bytes of a saved ideal-scenario report --
is unchanged.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Dict, Optional

from repro.obs.events import ObsEventLog
from repro.obs.profiling import PhaseProfiler
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import NULL_SPAN, Tracer
from repro.utils.clock import SimulatedClock


class Observability:
    """Tracing + events + profiling over a stack's registry, as one ``.obs``."""

    def __init__(self, registry: MetricsRegistry,
                 clock: Optional[SimulatedClock] = None) -> None:
        self.clock = clock
        self.registry = registry
        self.tracer = Tracer(clock=clock)
        self.event_log = ObsEventLog(clock=clock)
        self.profiler = PhaseProfiler()

    # -- hot-path helpers (what instrumented call sites use) ----------------

    def tx_span(self, name: str, trace_id: str, *,
                replica: Optional[str] = None,
                parent_id: Optional[str] = None,
                link: bool = True, **attrs: Any) -> Any:
        """Open a span on a transaction's trace (see ``Tracer.start_span``)."""
        return self.tracer.start_span(
            name, trace_id, parent_id=parent_id, replica=replica,
            link=link, attrs=attrs or None)

    def end(self, span: Any, status: str = "ok") -> Any:
        """Close a span against the simulated clock."""
        return span.end(self.clock, status=status)

    def span_context(self, span: Any) -> Optional[Dict[str, str]]:
        """The trace-context dict to carry inside a gossip message."""
        return self.tracer.context(span)

    def event(self, kind: str, **fields: Any) -> None:
        """Emit one structured event (reorg, partition, crash...)."""
        self.event_log.emit(kind, **fields)

    def phase(self, name: str):
        """``with obs.phase("verify"):`` -- time one profiled phase."""
        return self.profiler.phase(name)

    def observe_block_production(self, seconds: float) -> None:
        """Record the wall-clock cost of producing one block."""
        self.registry.histogram(
            "repro_block_production_seconds",
            "Wall-clock cost of producing one block.").child.observe(seconds)

    # -- wiring -------------------------------------------------------------

    def attach_chain(self, chain: Any, label: Optional[str] = None) -> None:
        """Hook one :class:`Blockchain` (again after recover/resync replace it)."""
        chain.obs = self
        chain.obs_label = label

    def instrument_cluster(self, cluster: Any) -> None:
        """Hook every replica, the gossip layer and cluster chaos events."""
        cluster.obs = self
        cluster.gossip.obs = self
        for replica in cluster.replicas:
            replica.obs = self
            self.attach_chain(replica.chain, replica.name)

    # -- reporting ----------------------------------------------------------

    def sample_trace_id(self) -> Optional[str]:
        """A representative trace id: the first transaction trace recorded."""
        for trace_id in self.tracer.trace_ids():
            if trace_id.startswith("0x"):
                return trace_id
        ids = self.tracer.trace_ids()
        return ids[0] if ids else None

    def stats_dict(self) -> Dict[str, Any]:
        """Deterministic summary embedded in scenario / load reports.

        Span, event and phase *counts* are deterministic under the
        simulated clock; wall-clock durations are excluded here and the
        full (non-deterministic) registry snapshot lives under its own
        ``"metrics"`` key so report diffs localize cleanly.
        """
        return {
            "events_by_kind": self.event_log.counts_by_kind(),
            "events_dropped": self.event_log.dropped,
            "events_total": len(self.event_log),
            "metrics": self.registry.snapshot(),
            "phase_calls": self.profiler.counts(),
            "sample_trace_id": self.sample_trace_id(),
            "spans_by_name": self.tracer.span_counts(),
            "spans_dropped": self.tracer.dropped,
            "spans_total": len(self.tracer.spans),
            "traces_total": len(self.tracer.trace_ids()),
        }


#: The one shared no-op ``with`` block :meth:`NullObservability.phase` hands
#: out (``nullcontext`` is stateless, so reusable and re-entrant).
_NULL_PHASE = nullcontext()


class NullObservability:
    """What ``.obs`` is until an :class:`Observability` is attached.

    Stateless: every hook an instrumented call site uses exists and does
    nothing, so call sites never branch on whether a run is observed.
    ``tests/obs/test_null_facade.py`` holds it to :class:`Observability`'s
    hot-path and attach surface.
    """

    __slots__ = ()

    def tx_span(self, name: str, trace_id: str, **_: Any) -> Any:
        return NULL_SPAN

    def end(self, span: Any, status: str = "ok") -> Any:
        return span

    def span_context(self, span: Any) -> None:
        return None

    def event(self, kind: str, **fields: Any) -> None:
        return None

    def phase(self, name: str) -> Any:
        return _NULL_PHASE

    def observe_block_production(self, seconds: float) -> None:
        return None

    def attach_chain(self, chain: Any, label: Optional[str] = None) -> None:
        return None


NULL_OBSERVABILITY = NullObservability()


def ensure_observability(value: Any, registry: MetricsRegistry,
                         clock: Optional[SimulatedClock] = None
                         ) -> Optional[Observability]:
    """Normalize an ``observability`` argument.

    ``None``/``False`` -> ``None`` (disabled); ``True`` -> a fresh
    :class:`Observability` over ``registry`` on ``clock``; an existing
    instance passes through with the registry it was built over (its clock
    is rebound to ``clock`` when one is given, so a caller-built facade
    still tracks the runner's simulated time).
    """
    if not value:
        return None
    if isinstance(value, Observability):
        if clock is not None and value.clock is None:
            value.clock = clock
            value.tracer.clock = clock
            value.event_log.clock = clock
        return value
    return Observability(registry, clock=clock)
