"""``bench/trace.py`` sees every in-process verify as one ``chain.verify``.

The benchmark's tracer counts ``chain.verify`` by wrapping the module
attribute ``repro.chain.keys.verify_signature``; a verify reached under any
other name is charged to its caller without a word.  Forty fresh transfers
through ``Blockchain.submit_transaction`` must therefore show forty
``chain.verify`` spans, each below a ``chain.submit`` and each with self time.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.loadgen.driver import presigned_transfers

TRACE_PY = Path(__file__).resolve().parents[2] / "bench" / "trace.py"
SUBMITS = 40


def bench_tracer():
    """A fresh ``bench/trace.py`` ``Tracer`` (the file is loaded by path:
    ``bench/`` is not a package, and ``trace`` is a standard module)."""
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def self_times(spans, name):
    """Self seconds of each of one thread's spans called ``name``."""
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _weight in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [(end - start) - child_time[index]
            for index, (span_name, start, end, _parent, _weight) in enumerate(spans)
            if span_name == name]


def test_every_in_process_submit_shows_one_verify_span():
    node, transactions = presigned_transfers(SUBMITS, 4, "trace-verify-spans")
    tracer = bench_tracer()
    tracer.install()
    try:
        for tx in transactions:
            node.chain.submit_transaction(tx)
    finally:
        tracer.restore()
    verifies = [seconds for spans in tracer.threads
                for seconds in self_times(spans, "chain.verify")]
    assert len(verifies) == SUBMITS
    assert all(seconds > 0 for seconds in verifies)
    assert tracer.count_under("chain.verify", "chain.submit") == SUBMITS
    assert tracer.table()["chain.submit"]["spans"] == SUBMITS
