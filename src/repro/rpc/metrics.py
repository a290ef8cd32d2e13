"""Gateway request metrics: counts per method and error code, and latency.

The gateway records each validated call into :class:`RequestMetrics` once,
after the call is answered.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional

#: Latency histogram bucket upper bounds in milliseconds (last bucket: +inf).
#: Bounds are ``le``-**inclusive**, matching the Prometheus convention: an
#: observation exactly on a bound lands in that bound's bucket (0.5 ms counts
#: toward the 0.5 bucket, not the 1.0 one).  Pinned by
#: ``tests/rpc/test_histogram_buckets.py``; ``repro.obs`` re-exposes these
#: buckets in seconds with the counts carried over verbatim, which is only
#: correct because both sides share this inclusive semantics.
LATENCY_BUCKETS_MS = (0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0)


class RequestMetrics:
    """Counts requests per method and error code, and histograms latency.

    Latency is wall-clock time (``time.perf_counter``) from a validated call
    starting to its result, not simulated time -- it measures the gateway's
    own cost, which is what the RPC benchmarks track.

    Counters mutate on whatever thread dispatches requests, while
    ``GET /metrics`` renders snapshots from the registry's collector --
    potentially another thread.  Every mutation and every read of the
    per-method/per-code dicts therefore holds :attr:`lock`; without it a
    dict resize mid-iteration blows up the render (and counts tear).
    """

    def __init__(self) -> None:
        #: Guards every counter against concurrent snapshot/render reads.
        self.lock = threading.Lock()
        self.requests_total = 0
        self.errors_total = 0
        self.by_method: Dict[str, int] = {}
        self.errors_by_code: Dict[int, int] = {}
        self.latency_bucket_counts: List[int] = [0] * (len(LATENCY_BUCKETS_MS) + 1)
        self.latency_total_ms = 0.0
        #: Named gauge callbacks sampled into every :meth:`snapshot` -- e.g.
        #: the storage engine's cache hit/miss counters.  Each callback
        #: returns a JSON-safe dict.
        self._gauges: Dict[str, Callable[[], Dict[str, Any]]] = {}

    def attach_gauge(self, name: str, sample: Callable[[], Dict[str, Any]]) -> None:
        """Register a gauge; its sample appears under ``name`` in snapshots."""
        self._gauges[name] = sample

    def record(self, method: str, code: Optional[int], elapsed_ms: float) -> None:
        """Count one call: its method, its error code (``None``: it
        succeeded) and its latency, under one lock acquisition."""
        # ``acquire``/``release`` rather than ``with``: half the lock's cost
        # on a path taken once per call.
        self.lock.acquire()
        try:
            self.requests_total += 1
            self.by_method[method] = self.by_method.get(method, 0) + 1
            if code is not None:
                self.errors_total += 1
                self.errors_by_code[code] = self.errors_by_code.get(code, 0) + 1
            self._observe(elapsed_ms)
        finally:
            self.lock.release()

    def _observe(self, elapsed_ms: float) -> None:
        """Record one duration in its ``le``-inclusive bucket; the caller
        holds :attr:`lock` when others may read."""
        self.latency_total_ms += elapsed_ms
        self.latency_bucket_counts[bisect_left(LATENCY_BUCKETS_MS, elapsed_ms)] += 1

    def top_methods(self, count: int = 5) -> List[Any]:
        """The ``count`` most-called methods as (method, calls) pairs."""
        with self.lock:
            ranked = sorted(self.by_method.items(),
                            key=lambda item: (-item[1], item[0]))
        return ranked[:count]

    def snapshot(self, include_latency: bool = True) -> Dict[str, Any]:
        """JSON-friendly metrics dump.

        Scenario reports pass ``include_latency=False``: request counts are
        deterministic across runs, wall-clock latencies are not.
        """
        with self.lock:
            counters: Dict[str, Any] = {
                "requests_total": self.requests_total,
                "errors_total": self.errors_total,
                "by_method": dict(sorted(self.by_method.items())),
                "errors_by_code": {str(code): n for code, n in sorted(self.errors_by_code.items())},
            }
            if include_latency:
                # Inline mean: the property re-takes the (non-reentrant) lock.
                mean = (self.latency_total_ms / self.requests_total
                        if self.requests_total else 0.0)
                counters["mean_latency_ms"] = round(mean, 4)
                counters["latency_histogram_ms"] = {
                    **{str(bound): count
                       for bound, count in zip(LATENCY_BUCKETS_MS, self.latency_bucket_counts)},
                    "+inf": self.latency_bucket_counts[-1],
                }
        for name, sample in sorted(self._gauges.items()):
            counters[name] = sample()
        return counters
