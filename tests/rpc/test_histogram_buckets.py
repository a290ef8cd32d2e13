"""Pins the ``le``-inclusive bucketing contract of the RPC latency histogram.

An observation exactly on a bucket bound lands in *that* bound's bucket
(0.5 ms counts toward the 0.5 bucket, not the 1.0 one), matching the
Prometheus convention.  ``repro.obs`` carries these counts verbatim into
its seconds-bucketed registry series, which is only correct while both
sides agree on this semantics -- so this file pins both.
"""

from __future__ import annotations

from repro.obs import MetricsRegistry
from repro.rpc.metrics import LATENCY_BUCKETS_MS, RequestMetrics


class TestRequestMetricsBucketing:
    def test_exact_bound_lands_in_its_own_bucket(self):
        metrics = RequestMetrics()
        metrics._observe(0.5)
        index = LATENCY_BUCKETS_MS.index(0.5)
        assert metrics.latency_bucket_counts[index] == 1
        assert sum(metrics.latency_bucket_counts) == 1

    def test_every_bound_is_le_inclusive(self):
        metrics = RequestMetrics()
        for bound in LATENCY_BUCKETS_MS:
            metrics._observe(bound)
        assert metrics.latency_bucket_counts == \
            [1] * len(LATENCY_BUCKETS_MS) + [0]

    def test_just_above_a_bound_falls_into_the_next_bucket(self):
        metrics = RequestMetrics()
        metrics._observe(0.5 + 1e-9)
        assert metrics.latency_bucket_counts[LATENCY_BUCKETS_MS.index(1.0)] == 1

    def test_overflow_lands_in_the_implicit_inf_bucket(self):
        metrics = RequestMetrics()
        metrics._observe(max(LATENCY_BUCKETS_MS) * 10)
        assert metrics.latency_bucket_counts[-1] == 1

    def test_snapshot_exposes_the_bounds_with_an_inf_tail(self):
        metrics = RequestMetrics()
        metrics._observe(0.5)
        histogram = metrics.snapshot()["latency_histogram_ms"]
        assert histogram["0.5"] == 1
        assert histogram["+inf"] == 0
        assert len(histogram) == len(LATENCY_BUCKETS_MS) + 1


class TestRegistryParity:
    """The unified registry must share the inclusive-bound semantics."""

    def test_registry_histogram_is_inclusive_at_the_same_bounds(self):
        seconds_bounds = tuple(b / 1000.0 for b in LATENCY_BUCKETS_MS)
        child = MetricsRegistry().histogram(
            "h_seconds", buckets=seconds_bounds).child
        for bound in seconds_bounds:
            child.observe(bound)
        assert child.counts == [1] * len(seconds_bounds) + [0]

    def test_both_sides_bucket_a_shared_sample_identically(self):
        samples_ms = [0.1, 0.5, 0.5000001, 1.0, 7.0, 2000.0]
        metrics = RequestMetrics()
        child = MetricsRegistry().histogram(
            "h_seconds",
            buckets=tuple(b / 1000.0 for b in LATENCY_BUCKETS_MS)).child
        for ms in samples_ms:
            metrics._observe(ms)
            child.observe(ms / 1000.0)
        assert metrics.latency_bucket_counts == child.counts
