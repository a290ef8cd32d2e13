"""The unified metrics registry: types, labels, naming, exposition, adapters."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.obs import DEFAULT_SECONDS_BUCKETS, MetricsRegistry
from repro.obs.adapters import collect_cache, collect_rpc
from repro.rpc.metrics import LATENCY_BUCKETS_MS, RequestMetrics
from repro.utils.cache import LRUCache


class TestFamilies:
    def test_counter_gauge_histogram_are_typed(self):
        reg = MetricsRegistry()
        reg.counter("a_total").child.set_total(1)
        reg.gauge("b").child.set(3)
        reg.histogram("c_seconds").child.observe(0.01)
        snap = reg.snapshot()
        assert snap["a_total"]["type"] == "counter"
        assert snap["b"]["type"] == "gauge"
        assert snap["c_seconds"]["type"] == "histogram"

    def test_counter_name_must_end_in_total(self):
        with pytest.raises(ObservabilityError, match="_total"):
            MetricsRegistry().counter("requests")

    def test_names_must_be_snake_case(self):
        reg = MetricsRegistry()
        for bad in ("Repro_total", "repro-x_total", "0bad_total", "x y_total"):
            with pytest.raises(ObservabilityError, match="snake_case"):
                reg.counter(bad)
        with pytest.raises(ObservabilityError, match="snake_case"):
            reg.gauge("ok", labelnames=["Bad-Label"])

    def test_reregistration_returns_the_same_family(self):
        reg = MetricsRegistry()
        first = reg.counter("x_total", labelnames=["k"])
        assert reg.counter("x_total", labelnames=["k"]) is first

    def test_type_or_label_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labelnames=["k"])
        with pytest.raises(ObservabilityError, match="already registered"):
            reg.gauge("x_total", labelnames=["k"])
        with pytest.raises(ObservabilityError, match="already registered"):
            reg.counter("x_total", labelnames=["other"])


class TestLabels:
    def test_labels_get_or_create_one_series_per_value_set(self):
        reg = MetricsRegistry()
        family = reg.counter("req_total", labelnames=["method"])
        family.labels(method="a").set_total(2)
        family.labels(method="b").set_total(1)
        assert family.labels(method="a") is family.labels(method="a")
        values = {labels: child.value for labels, child in family.children()}
        assert values == {("a",): 2.0, ("b",): 1.0}

    def test_wrong_label_set_raises(self):
        family = MetricsRegistry().counter("req_total", labelnames=["method"])
        with pytest.raises(ObservabilityError, match="takes labels"):
            family.labels(nope="x")

    def test_child_property_requires_an_unlabeled_family(self):
        family = MetricsRegistry().gauge("g", labelnames=["k"])
        with pytest.raises(ObservabilityError, match="labeled"):
            _ = family.child


class TestHistogramBuckets:
    def test_observation_on_an_exact_bound_is_le_inclusive(self):
        """0.5 lands in the 0.5 bucket, not the next one up."""
        child = MetricsRegistry().histogram("h_seconds").child
        child.observe(0.5)
        index = DEFAULT_SECONDS_BUCKETS.index(0.5)
        assert child.counts[index] == 1
        assert sum(child.counts) == 1

    def test_every_bound_is_inclusive(self):
        child = MetricsRegistry().histogram("h_seconds").child
        for bound in DEFAULT_SECONDS_BUCKETS:
            child.observe(bound)
        assert child.counts == [1] * len(DEFAULT_SECONDS_BUCKETS) + [0]

    def test_overflow_goes_to_inf(self):
        child = MetricsRegistry().histogram("h_seconds").child
        child.observe(max(DEFAULT_SECONDS_BUCKETS) + 1)
        assert child.counts[-1] == 1

    def test_rendered_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        child = reg.histogram("h_seconds", buckets=(0.1, 1.0)).child
        child.observe(0.1)
        child.observe(0.5)
        child.observe(5.0)
        text = reg.render_prometheus()
        assert 'h_seconds_bucket{le="0.1"} 1' in text
        assert 'h_seconds_bucket{le="1"} 2' in text
        assert 'h_seconds_bucket{le="+Inf"} 3' in text
        assert "h_seconds_count 3" in text


class TestExposition:
    def test_snapshot_sorts_families_and_series(self):
        reg = MetricsRegistry()
        family = reg.gauge("zz", labelnames=["k"])
        family.labels(k="b").set(2)
        family.labels(k="a").set(1)
        reg.counter("aa_total").child.set_total(1)
        snap = reg.snapshot()
        assert list(snap) == ["aa_total", "zz"]
        assert [s["labels"]["k"] for s in snap["zz"]["series"]] == ["a", "b"]

    def test_prometheus_text_has_help_and_type_headers(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", "Cache hits.").child.set_total(3)
        text = reg.render_prometheus()
        assert "# HELP hits_total Cache hits.\n# TYPE hits_total counter\n" in text
        assert "hits_total 3\n" in text

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.gauge("g", labelnames=["k"]).labels(k='a"b\\c').set(1)
        assert 'g{k="a\\"b\\\\c"} 1' in reg.render_prometheus()

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


class TestCollectors:
    def test_collectors_run_before_every_snapshot(self):
        reg = MetricsRegistry()
        calls = []

        @reg.register_collector
        def sample(registry):
            calls.append(1)
            registry.gauge("depth").child.set(len(calls))

        assert reg.snapshot()["depth"]["series"][0]["value"] == 1
        assert reg.snapshot()["depth"]["series"][0]["value"] == 2

    def test_rpc_metrics_adapter_mirrors_request_counts(self):
        metrics = RequestMetrics()
        metrics.requests_total = 3
        metrics.by_method = {"eth_blockNumber": 2, "ipfs_cat": 1}
        metrics.errors_by_code = {-32601: 1}
        metrics.latency_bucket_counts[1] = 3  # the 0.5 ms bucket
        metrics.latency_total_ms = 1.2
        reg = MetricsRegistry()
        collect_rpc(reg, metrics)
        snap = reg.snapshot()
        series = {s["labels"]["method"]: s["value"]
                  for s in snap["repro_rpc_requests_total"]["series"]}
        assert series == {"eth_blockNumber": 2, "ipfs_cat": 1}
        errors = snap["repro_rpc_errors_total"]["series"]
        assert errors == [{"labels": {"code": "-32601"}, "value": 1.0}]
        latency = snap["repro_rpc_request_latency_seconds"]["series"][0]
        # ms counts carried over verbatim into the seconds-bucketed series.
        assert latency["count"] == 3
        assert latency["buckets"][str(LATENCY_BUCKETS_MS[1] / 1000.0)] == 3
        assert latency["sum"] == pytest.approx(0.0012)

    def test_cache_adapter_exposes_unified_series(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        reg = MetricsRegistry()
        collect_cache(reg, "storage", cache)
        snap = reg.snapshot()
        by_name = {
            name: {tuple(s["labels"].values()): s["value"]
                   for s in snap[name]["series"]}
            for name in snap
        }
        assert by_name["repro_cache_hits_total"][("storage",)] == 1
        assert by_name["repro_cache_misses_total"][("storage",)] == 1
        assert by_name["repro_cache_entries"][("storage",)] == 1
        assert by_name["repro_cache_capacity"][("storage",)] == 2
        assert "repro_cache_builds_total" not in by_name
