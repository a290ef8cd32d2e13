"""Unified observability: metrics, tracing, structured events, profiling.

See :mod:`repro.obs.facade` for the attachable :class:`Observability`
object and ``docs/observability.md`` for the metric catalog and trace
anatomy.  The metrics registry is always on -- every stack owns one, fed
by pull collectors that cost nothing until scraped; tracing, events and
profiling are off by default: no component builds an ``Observability``
unless asked, and until then every ``.obs`` is the no-op
``NULL_OBSERVABILITY``.
"""

from repro.obs.events import ObsEventLog
from repro.obs.facade import (
    NULL_OBSERVABILITY,
    NullObservability,
    Observability,
    ensure_observability,
)
from repro.obs.profiling import PhaseProfiler
from repro.obs.registry import (
    DEFAULT_SECONDS_BUCKETS,
    METRIC_NAME_RE,
    MetricsRegistry,
)
from repro.obs.tracing import NULL_SPAN, Span, Tracer

__all__ = [
    "DEFAULT_SECONDS_BUCKETS",
    "METRIC_NAME_RE",
    "MetricsRegistry",
    "NULL_OBSERVABILITY",
    "NULL_SPAN",
    "NullObservability",
    "ObsEventLog",
    "Observability",
    "PhaseProfiler",
    "Span",
    "Tracer",
    "ensure_observability",
]
