"""Spans around each layer's public entry points, recorded from outside.

``Tracer.install`` replaces each listed public attribute with a wrapper that
records ``(name, start, end, parent)`` on a per-thread stack; ``restore`` puts
the originals back.  Nothing under ``src/`` knows it is being traced.  Async
functions are not wrapped: ``net`` is measured differentially instead (wire
latency minus in-process ``handle_raw`` of the same text).

A layer's self time is its span's duration minus its direct children's
durations, so rows add up: the traced wall equals the sum of all self times
plus ``trace.unattributed_s``.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: (module, attribute path, span name).  A path with a dot is a method on a
#: class; without one, a module-level function, replaced in every loaded
#: ``repro`` module that imported it by name.
TARGETS: List[Tuple[str, str, str]] = [
    ("repro.chain.keys", "verify_signature", "chain.verify"),
    ("repro.chain.chain", "Blockchain.submit_transaction", "chain.submit"),
    ("repro.chain.mempool", "Mempool.add", "chain.mempool_add"),
    ("repro.chain.mempool", "Mempool.select_for_block", "chain.select"),
    ("repro.chain.executor", "TransactionExecutor.apply", "chain.execute"),
    ("repro.chain.chain", "Blockchain.produce_block", "chain.produce"),
    *[("repro.chain.node", f"EthereumNode.{method}", "chain.read") for method in (
        "get_block", "get_balance", "get_transaction_count", "pending_nonce",
        "is_contract", "get_receipt", "get_transaction", "call", "estimate_gas",
        "get_logs", "get_logs_page")],
    ("repro.storage.wal", "WriteAheadLog.append", "storage.wal_append"),
    ("repro.rpc.gateway", "JsonRpcGateway.handle_raw", "rpc.json"),
    ("repro.rpc.gateway", "JsonRpcGateway.handle", "rpc.dispatch"),
    ("repro.ipfs.node", "IpfsNode.add_bytes", "ipfs.add"),
    ("repro.ipfs.node", "IpfsNode.cat", "ipfs.cat"),
    ("repro.incentives.contribution", "leave_one_out", "incentives.loo"),
    ("repro.incentives.payment", "allocate_budget", "incentives.allocate"),
    ("repro.system.roles", "ModelBuyer.pay_owners", "incentives.pay"),
    ("repro.ml.trainer", "Trainer.train", "ml.train"),
    ("repro.ml.trainer", "evaluate_model", "ml.evaluate"),
    ("repro.fl.oneshot.base", "AggregationResult.evaluate", "ml.evaluate"),
    ("repro.web.client", "RestClient.request", "web.backend"),
    ("repro.data.synthetic_mnist", "generate_synthetic_mnist", "data.generate"),
    ("repro.system.orchestrator", "run_marketplace", "system.task"),
    # Off under defaults: counted so a change that turns one on is visible.
    ("repro.batchverify.engine", "BatchVerifyEngine.settle", "accel.batchverify"),
    ("repro.parallel.verify", "SignatureVerifyPool.prewarm_async", "accel.verify_pool"),
    ("repro.parallel.verify", "SignatureVerifyPool.batch_prewarm_async", "accel.verify_pool"),
    ("repro.analytics.feeder", "AnalyticsFeeder.drain", "accel.analytics"),
]


def _batch_size(_self: Any, payload: Any = None, *_args: Any) -> int:
    """Calls carried by one ``JsonRpcGateway.handle``."""
    return len(payload) if isinstance(payload, list) else 1


#: Span names whose count is not one per span.
WEIGHTS: Dict[str, Callable[..., int]] = {"rpc.dispatch": _batch_size}


class Tracer:
    """Installs the wrappers, keeps spans in memory, computes self times."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Per thread: spans as [name, start, end, parent index, weight].
        self.threads: List[List[list]] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    def _thread_state(self) -> Tuple[List[list], List[int]]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [])
            self._local.state = state
            with self._lock:
                self.threads.append(state[0])
        return state

    def _wrap(self, original: Callable[..., Any], name: str) -> Callable[..., Any]:
        weight_of = WEIGHTS.get(name)
        clock = time.perf_counter
        thread_state = self._thread_state

        def traced(*args: Any, **kwargs: Any) -> Any:
            spans, stack = thread_state()
            weight = weight_of(*args, **kwargs) if weight_of is not None else 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, weight]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, extra: Optional[List[Tuple[str, str, str]]] = None) -> None:
        for module_name, path, name in TARGETS + list(extra or ()):
            owner: Any = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attribute]
            if isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"{module_name}.{path}: only plain functions are traced")
            traced = self._wrap(original, name)
            holders = [owner] if parents else [
                module for loaded, module in list(sys.modules.items())
                if loaded.split(".")[0] == "repro"
                and getattr(module, attribute, None) is original]
            for holder in holders:
                setattr(holder, attribute, traced)
                self._patched.append((holder, attribute, original))

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- reading ---------------------------------------------------------------

    def table(self, windows: Optional[Sequence[Tuple[float, float]]] = None
              ) -> Dict[str, Dict[str, float]]:
        """Per span name: self seconds, inclusive seconds, spans, weighted
        count -- of every span, or of those that began inside ``windows``
        (the timed sections, so set-up and checks stay out of the table)."""
        rows: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "total_s": 0.0, "spans": 0, "count": 0})
        for spans in self.threads:
            child_time = [0.0] * len(spans)
            for _name, start, end, parent, _weight in spans:
                if parent >= 0:
                    child_time[parent] += end - start
            for index, (name, start, end, _parent, weight) in enumerate(spans):
                if windows is not None and not any(
                        first <= start <= last for first, last in windows):
                    continue
                row = rows[name]
                row["self_s"] += (end - start) - child_time[index]
                row["total_s"] += end - start
                row["spans"] += 1
                row["count"] += weight
        return dict(rows)

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        found = 0
        for spans in self.threads:
            for span in spans:
                if span[0] != name:
                    continue
                parent = span[3]
                while parent >= 0 and spans[parent][0] != ancestor:
                    parent = spans[parent][3]
                found += parent >= 0
        return found

    def span_count(self) -> int:
        return sum(len(spans) for spans in self.threads)

    def dump(self, path: str, workload: str, wall_s: float) -> None:
        """Write every span: ``[name, start, end, parent]`` per thread, times
        in seconds from the first span, ``parent`` an index into the same
        thread's list (-1 for a root)."""
        origin = min((spans[0][1] for spans in self.threads if spans), default=0.0)
        document = {
            "workload": workload,
            "traced_wall_s": wall_s,
            "fields": ["name", "start_s", "end_s", "parent"],
            "threads": [
                [[name, round(start - origin, 7), round(end - origin, 7), parent]
                 for name, start, end, parent, _weight in spans]
                for spans in self.threads],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
