"""A unified metrics registry with Prometheus text exposition.

Every subsystem's counters -- RPC request totals, storage cache hits,
mempool depth, gossip traffic, loadgen saturation -- historically lived in
its own ad-hoc snapshot dict.  The :class:`MetricsRegistry` gives them one
home: typed counter / gauge / histogram families with label support,
deterministic sorted snapshots (safe to embed in byte-stable saved
reports), and ``render_prometheus()`` for the classic ``/metrics`` text
format.

Two usage styles coexist:

* **push** -- a hot path calls ``registry.histogram(...).child.observe()``;
* **pull** -- ``register_collector(fn)`` registers an adapter that samples
  an existing stat source (``RequestMetrics``, ``LRUCache.snapshot()``,
  ``Mempool.stats()``, ``GossipStats``) right before a snapshot or render,
  which keeps instrumented hot paths free of any metric bookkeeping.

Naming follows the Prometheus convention the CI naming gate enforces:
``snake_case`` throughout, counters end in ``_total`` and duration
histograms end in ``_seconds``.
"""

from __future__ import annotations

import re
import threading
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.errors import ObservabilityError

#: Metric and label names must be snake_case: this is what the CI naming
#: gate (tests/system/test_metric_names.py) checks rendered output against.
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Default histogram buckets in **seconds**; mirrors the RPC gateway's
#: millisecond buckets (``LATENCY_BUCKETS_MS``) divided by 1000.
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0,
)

Collector = Callable[["MetricsRegistry"], None]


def _format_value(value: float) -> str:
    """Render a sample the way Prometheus text format expects."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text-format rules."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_suffix(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    parts = [
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    return "{" + ",".join(parts) + "}"


class _Child:
    """One (family, label values) time series."""

    __slots__ = ("labelvalues",)

    def __init__(self, labelvalues: Tuple[str, ...]) -> None:
        self.labelvalues = labelvalues


class CounterChild(_Child):
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self, labelvalues: Tuple[str, ...]) -> None:
        super().__init__(labelvalues)
        self.value = 0.0

    def set_total(self, value: float) -> None:
        """Adapter hook: overwrite the running total from an external source.

        Pull-based collectors sample pre-existing counters (for example
        ``RequestMetrics.requests_total``) that already track their own
        totals; ``set_total`` mirrors them without double counting.
        """
        self.value = float(value)


class GaugeChild(_Child):
    """A value that can go up and down (depth, entries, ratio...)."""

    __slots__ = ("value",)

    def __init__(self, labelvalues: Tuple[str, ...]) -> None:
        super().__init__(labelvalues)
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to an absolute value."""
        self.value = float(value)


class HistogramChild(_Child):
    """Bucketed observations with ``le``-**inclusive** bounds.

    An observation equal to a bucket's upper bound lands *in* that bucket
    (Prometheus convention): ``observe(0.5)`` with a ``0.5`` bound counts
    toward ``le="0.5"``.  The RPC gateway's latency histogram pins the
    same semantics (see ``repro.rpc.metrics.RequestMetrics._observe``).
    """

    __slots__ = ("buckets", "counts", "sum")

    def __init__(self, labelvalues: Tuple[str, ...], buckets: Tuple[float, ...]) -> None:
        super().__init__(labelvalues)
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # final slot is +Inf
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation into its (inclusive) bucket."""
        self.sum += value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    @property
    def count(self) -> int:
        """Total number of observations."""
        return sum(self.counts)

    def load(self, counts: Sequence[int], total_sum: float) -> None:
        """Adapter hook: overwrite state from an external histogram.

        ``counts`` are per-bucket (non-cumulative) counts with the final
        entry being the +Inf overflow -- the exact shape
        ``RequestMetrics.latency_bucket_counts`` keeps.
        """
        if len(counts) != len(self.counts):
            raise ObservabilityError(
                f"expected {len(self.counts)} bucket counts, got {len(counts)}")
        self.counts = [int(c) for c in counts]
        self.sum = float(total_sum)


class MetricFamily:
    """A named metric with a fixed type, help string and label schema."""

    def __init__(self, name: str, kind: str, help_text: str,
                 labelnames: Tuple[str, ...],
                 buckets: Tuple[float, ...] = ()) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = labelnames
        self.buckets = buckets
        self._children: Dict[Tuple[str, ...], _Child] = {}

    def labels(self, **labels: Any) -> Any:
        """The child series for one label-value combination (get-or-create)."""
        if tuple(sorted(labels)) != tuple(sorted(self.labelnames)):
            raise ObservabilityError(
                f"metric {self.name!r} takes labels {sorted(self.labelnames)}, "
                f"got {sorted(labels)}")
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._new_child(key)
            self._children[key] = child
        return child

    def _new_child(self, key: Tuple[str, ...]) -> _Child:
        if self.kind == "counter":
            return CounterChild(key)
        if self.kind == "gauge":
            return GaugeChild(key)
        return HistogramChild(key, self.buckets)

    @property
    def child(self) -> Any:
        """The single unlabeled series (only valid with no label names)."""
        if self.labelnames:
            raise ObservabilityError(
                f"metric {self.name!r} is labeled; use .labels(...)")
        return self.labels()

    def children(self) -> List[Tuple[Tuple[str, ...], _Child]]:
        """All (label values, child) pairs, sorted for determinism."""
        return sorted(self._children.items())


class MetricsRegistry:
    """The central home for every metric family plus pull-based collectors.

    Family creation and the collect/snapshot/render paths hold a reentrant
    lock: the HTTP server renders ``/metrics`` while other threads dispatch
    requests that create label children, and a dict resize during a render
    would otherwise blow up the iteration.  The lock is reentrant because
    collectors run *inside* :meth:`collect` and themselves call
    :meth:`counter` / :meth:`gauge` / :meth:`histogram`.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Collector] = []

    # -- family creation ----------------------------------------------------

    def _family(self, name: str, kind: str, help_text: str,
                labelnames: Iterable[str],
                buckets: Tuple[float, ...] = ()) -> MetricFamily:
        labeltuple = tuple(labelnames)
        if not METRIC_NAME_RE.match(name):
            raise ObservabilityError(f"metric name {name!r} is not snake_case")
        for label in labeltuple:
            if not METRIC_NAME_RE.match(label):
                raise ObservabilityError(f"label name {label!r} is not snake_case")
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.labelnames != labeltuple:
                    raise ObservabilityError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {existing.labelnames}")
                return existing
            family = MetricFamily(name, kind, help_text, labeltuple, buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                labelnames: Iterable[str] = ()) -> MetricFamily:
        """Get or create a counter family; the name must end in ``_total``."""
        if not name.endswith("_total"):
            raise ObservabilityError(f"counter name {name!r} must end in '_total'")
        return self._family(name, "counter", help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Iterable[str] = ()) -> MetricFamily:
        """Get or create a gauge family."""
        return self._family(name, "gauge", help_text, labelnames)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
                  ) -> MetricFamily:
        """Get or create an unlabelled histogram family; duration histograms
        are named ``*_seconds`` and bucketed in seconds."""
        return self._family(name, "histogram", help_text, (), tuple(buckets))

    # -- collection ---------------------------------------------------------

    def register_collector(self, collector: Collector) -> Collector:
        """Register ``collector(registry)`` to run before every snapshot.

        Collectors adapt existing stat sources into the registry lazily, so
        instrumented hot paths pay nothing until somebody actually asks for
        metrics.
        """
        with self._lock:
            self._collectors.append(collector)
        return collector

    def collect(self) -> None:
        """Run every registered collector once (refreshing adapted metrics)."""
        with self._lock:
            for collector in list(self._collectors):
                collector(self)

    # -- exposition ---------------------------------------------------------

    def families(self) -> List[MetricFamily]:
        """All families sorted by name (after running collectors)."""
        with self._lock:
            self.collect()
            return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic JSON-friendly dump of every family.

        Keys are stable and sorted at every level, so embedding the
        snapshot in a ``save_json`` artifact keeps the file byte-stable for
        equal metric values.
        """
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for family in self.families():
            series: List[Dict[str, Any]] = []
            for labelvalues, child in family.children():
                labels = {
                    name: value
                    for name, value in zip(family.labelnames, labelvalues)
                }
                if family.kind == "histogram":
                    buckets = {
                        _format_value(bound): count
                        for bound, count in zip(family.buckets, child.counts)
                    }
                    buckets["+Inf"] = child.counts[-1]
                    series.append({
                        "buckets": buckets,
                        "count": child.count,
                        "labels": labels,
                        "sum": round(child.sum, 9),
                    })
                else:
                    series.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "help": family.help,
                "series": series,
                "type": family.kind,
            }
        return out

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (version 0.0.4)."""
        with self._lock:
            return self._render_locked()

    def _render_locked(self) -> str:
        lines: List[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labelvalues, child in family.children():
                suffix = _label_suffix(family.labelnames, labelvalues)
                if family.kind == "histogram":
                    cumulative = 0
                    for bound, count in zip(family.buckets, child.counts):
                        cumulative += count
                        le = _label_suffix(
                            family.labelnames + ("le",),
                            labelvalues + (_format_value(bound),))
                        lines.append(f"{family.name}_bucket{le} {cumulative}")
                    cumulative += child.counts[-1]
                    le = _label_suffix(family.labelnames + ("le",),
                                       labelvalues + ("+Inf",))
                    lines.append(f"{family.name}_bucket{le} {cumulative}")
                    lines.append(
                        f"{family.name}_sum{suffix} {_format_value(child.sum)}")
                    lines.append(f"{family.name}_count{suffix} {cumulative}")
                else:
                    lines.append(
                        f"{family.name}{suffix} {_format_value(child.value)}")
        return "\n".join(lines) + ("\n" if lines else "")
