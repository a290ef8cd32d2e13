"""Span-based tracing that records both wall-clock and simulated time.

A *trace* follows one logical operation -- almost always a transaction,
keyed by its hash -- through every subsystem it touches: submit on the
origin replica, mempool admission, gossip fan-out, delivery on each peer,
block inclusion, execution and receipt.  Each stage is a :class:`Span`
carrying two clocks:

* **simulated time** (:class:`repro.utils.clock.SimulatedClock`) -- where
  the event sits on the scenario timeline; deterministic across runs;
* **wall time** (``time.perf_counter``) -- what the stage actually cost in
  CPU, feeding the profiling cost tables.

Cross-replica propagation works by carrying a small *trace context* dict
(``{"trace_id", "parent"}``) inside gossip messages; the receiving side
parents its delivery span on the sender's span, so the whole cluster-wide
journey renders as one tree.  Within one replica, spans chain implicitly:
the tracer remembers the last span per ``(trace, replica)`` and parents
the next span on it, which is what threads submit -> execute -> receipt
together without any plumbing through the chain's call signatures.

Span ids are allocated from a per-tracer counter, so given the
deterministic simulation the span tree itself is deterministic; only the
wall-clock durations vary run to run.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.utils.clock import SimulatedClock


class Span:
    """One timed stage of a trace (see the module docstring for anatomy)."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "replica",
                 "attrs", "start_sim", "end_sim", "start_wall", "end_wall",
                 "status")

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: Optional[str], replica: Optional[str],
                 start_sim: float, start_wall: float,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.replica = replica
        self.attrs = dict(attrs) if attrs else {}
        self.start_sim = start_sim
        self.end_sim = start_sim
        self.start_wall = start_wall
        self.end_wall = start_wall
        self.status = "ok"

    def annotate(self, key: str, value: Any) -> "Span":
        """Attach one attribute (chainable)."""
        self.attrs[key] = value
        return self

    def end(self, clock: Optional[SimulatedClock] = None,
            status: str = "ok") -> "Span":
        """Close the span, stamping both clocks; idempotent enough for hooks."""
        self.end_wall = time.perf_counter()
        if clock is not None:
            self.end_sim = clock.now
        self.status = status
        return self

    def to_dict(self, include_wall: bool = True) -> Dict[str, Any]:
        """JSON-friendly dump; drop ``include_wall`` for deterministic output."""
        payload: Dict[str, Any] = {
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
            "name": self.name,
            "parent_id": self.parent_id,
            "replica": self.replica,
            "sim_end": round(self.end_sim, 6),
            "sim_start": round(self.start_sim, 6),
            "span_id": self.span_id,
            "status": self.status,
            "trace_id": self.trace_id,
        }
        if include_wall:
            payload["wall_ms"] = round((self.end_wall - self.start_wall) * 1000.0, 4)
        return payload


class _NullSpan:
    """Stand-in returned once the span cap is hit: every operation no-ops.

    Call sites never have to branch on "was this span recorded" -- they
    annotate and end it exactly like a real span.
    """

    __slots__ = ()
    span_id: Optional[str] = None
    trace_id: Optional[str] = None

    def annotate(self, key: str, value: Any) -> "_NullSpan":
        return self

    def end(self, clock: Optional[SimulatedClock] = None,
            status: str = "ok") -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


#: Spans a :class:`Tracer` keeps before it drops (and counts) the rest.
MAX_SPANS = 50_000


class Tracer:
    """Records spans, threads parent/child links, and renders trace trees."""

    def __init__(self, clock: Optional[SimulatedClock] = None) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.dropped = 0
        self._by_trace: Dict[str, List[Span]] = {}
        self._last: Dict[Tuple[str, Optional[str]], str] = {}
        self._next_id = 0

    # -- recording ----------------------------------------------------------

    def start_span(self, name: str, trace_id: str, *,
                   parent_id: Optional[str] = None,
                   replica: Optional[str] = None,
                   link: bool = True,
                   attrs: Optional[Dict[str, Any]] = None) -> Any:
        """Open a span on ``trace_id``.

        When ``parent_id`` is not given, the span is parented on the last
        *linked* span recorded for ``(trace_id, replica)`` -- the implicit
        chaining that turns per-replica stages into a tree.  ``link=False``
        records the span without making it the parent of what follows
        (used for fire-and-forget sends like gossip fan-out, whose children
        live on the *receiving* replica instead).
        """
        if len(self.spans) >= MAX_SPANS:
            self.dropped += 1
            return NULL_SPAN
        if parent_id is None:
            parent_id = self._last.get((trace_id, replica))
        self._next_id += 1
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=f"s{self._next_id:06d}",
            parent_id=parent_id,
            replica=replica,
            start_sim=self.clock.now if self.clock is not None else 0.0,
            start_wall=time.perf_counter(),
            attrs=attrs,
        )
        self.spans.append(span)
        self._by_trace.setdefault(trace_id, []).append(span)
        if link:
            self._last[(trace_id, replica)] = span.span_id
        return span

    def context(self, span: Any) -> Optional[Dict[str, str]]:
        """The propagation dict a message carries across replicas."""
        if span.span_id is None:
            return None
        return {"parent": span.span_id, "trace_id": span.trace_id}

    # -- inspection ---------------------------------------------------------

    def trace_ids(self) -> List[str]:
        """Every recorded trace id in first-seen order."""
        return list(self._by_trace)

    def spans_for(self, trace_id: str) -> List[Span]:
        """All spans of one trace in recording order."""
        return list(self._by_trace.get(trace_id, []))

    def span_counts(self) -> Dict[str, int]:
        """Deterministic ``{span name: count}`` across every trace."""
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return {name: counts[name] for name in sorted(counts)}

    def tree(self, trace_id: str,
             include_wall: bool = True) -> List[Dict[str, Any]]:
        """The trace as nested ``{"span": ..., "children": [...]}`` dicts.

        Spans whose parent is missing (sampled out or cross-trace) surface
        as additional roots rather than disappearing.
        """
        spans = self._by_trace.get(trace_id, [])
        nodes = {
            s.span_id: {"children": [], "span": s.to_dict(include_wall)}
            for s in spans
        }
        roots: List[Dict[str, Any]] = []
        for span in spans:
            node = nodes[span.span_id]
            parent = nodes.get(span.parent_id) if span.parent_id else None
            if parent is not None:
                parent["children"].append(node)
            else:
                roots.append(node)
        return roots

    def render(self, trace_id: str) -> str:
        """ASCII rendering of the span tree (what ``repro obs trace`` prints)."""
        lines = [f"trace {trace_id}"]

        def walk(node: Dict[str, Any], depth: int) -> None:
            span = node["span"]
            where = f" @{span['replica']}" if span["replica"] else ""
            timing = f"sim {span['sim_start']:.3f}s"
            if span["sim_end"] != span["sim_start"]:
                timing += f" +{span['sim_end'] - span['sim_start']:.3f}s"
            extra = ""
            if span["attrs"]:
                rendered = " ".join(
                    f"{k}={span['attrs'][k]}" for k in sorted(span["attrs"]))
                extra = f" [{rendered}]"
            lines.append("  " * (depth + 1)
                         + f"{span['name']}{where} ({timing}){extra}")
            for child in node["children"]:
                walk(child, depth + 1)

        for root in self.tree(trace_id, include_wall=False):
            walk(root, 0)
        return "\n".join(lines)
