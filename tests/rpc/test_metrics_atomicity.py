"""RequestMetrics under concurrency: the HTTP server renders ``/metrics``
from one thread while the event loop dispatches requests on another.  Before
the snapshot lock, a dict resize mid-iteration raised ``RuntimeError:
dictionary changed size during iteration`` and could render torn counters."""

import threading

import pytest

from repro.chain import EthereumNode
from repro.contracts import default_registry
from repro.obs import MetricsRegistry
from repro.obs.adapters import collect_rpc
from repro.rpc import JsonRpcGateway, make_request


def make_gateway():
    return JsonRpcGateway(node=EthereumNode(backend=default_registry()))


class TestSnapshotAtomicity:
    def test_snapshot_races_dispatch_without_errors(self):
        gateway = make_gateway()
        registry = MetricsRegistry()
        registry.register_collector(
            lambda reg: collect_rpc(reg, gateway.metrics))
        errors = []
        stop = threading.Event()

        def dispatch():
            index = 0
            try:
                while not stop.is_set():
                    # Fresh method names force by_method dict resizes --
                    # the original failure mode for a concurrent render.
                    gateway.handle(make_request(f"eth_noSuchMethod{index}"))
                    gateway.handle(make_request("eth_blockNumber"))
                    index += 1
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        def observe():
            try:
                while not stop.is_set():
                    snapshot = gateway.metrics.snapshot()
                    # Torn snapshot check: per-method counts can never
                    # exceed the total taken in the same lock acquisition.
                    assert sum(snapshot["by_method"].values()) \
                        <= snapshot["requests_total"]
                    registry.render_prometheus()
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=dispatch),
                   threading.Thread(target=observe),
                   threading.Thread(target=observe)]
        for thread in threads:
            thread.start()
        import time
        time.sleep(1.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert errors == []

    def test_snapshot_totals_are_internally_consistent(self):
        gateway = make_gateway()
        for _ in range(4):
            gateway.handle(make_request("eth_blockNumber"))
        gateway.handle(make_request("eth_noSuchMethod"))
        snapshot = gateway.metrics.snapshot()
        assert snapshot["requests_total"] == 5
        assert sum(snapshot["by_method"].values()) == 5
        assert snapshot["errors_total"] == 1
        assert sum(snapshot["latency_histogram_ms"].values()) == 5
        # mean is computed inside the same lock acquisition -- it must
        # agree with the (rounded) property read outside it when nothing
        # races.
        assert snapshot["mean_latency_ms"] == \
            pytest.approx(gateway.metrics.mean_latency_ms, abs=1e-3)
