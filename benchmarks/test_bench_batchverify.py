"""Deferred-verification benchmarks: one gated, one a comparison table.

* ``test_bench_batch_ingest`` (gated by the CI perf job) -- the shared
  ``presigned_transfers`` ingest workload with deferred verification
  enabled, comparable 1:1 with ``test_bench_tx_ingest`` (default path).
  It runs the engine inline (``verify_workers=0``): worker processes add
  fork/IPC noise CI runners amplify, and inline is the configuration that
  must cost nothing over the default path, since both run the same
  ``verify_signature``.
* ``test_default_vs_batch_ingest`` (ungated) -- the default path against
  the engine inline and on two workers, on the 1500-transfer workload
  docs/performance.md records ("Does the batch engine still pay rent?").

Everything derives from fixed labels, so two runs measure the identical
work.
"""

import os

from repro.loadgen.driver import measure_tx_ingest, presigned_transfers

from .conftest import print_table

INGEST_TXS = 200
INGEST_SENDERS = 10
#: The workload docs/performance.md's tables use (seed 7 fixes the labels).
COMPARE_TXS = 1500
COMPARE_SENDERS = 20


def test_bench_batch_ingest(benchmark):
    """The shared ingest workload with deferred verification, inline."""

    def setup():
        payload = presigned_transfers(INGEST_TXS, INGEST_SENDERS,
                                      "bench-batch-ingest")
        payload[0].chain.enable_batch_verify(0)
        return (payload,), {}

    def ingest(payload):
        node, transactions = payload
        for tx in transactions:
            node.chain.submit_transaction(tx)
        node.chain.produce_blocks_until_empty(max_blocks=1 + INGEST_TXS // 100)
        assert len(node.chain.mempool) == 0
        stats = node.chain.batchverify_stats()
        assert stats["deferred_admissions"] == INGEST_TXS
        assert stats["deferred_rejections"] == 0
        assert stats["pipeline_fallbacks"] == 0
        node.chain.batchverify.close()

    benchmark.pedantic(ingest, setup=setup, rounds=5, iterations=1,
                       warmup_rounds=1)
    tps = INGEST_TXS / benchmark.stats.stats.mean
    print_table(
        "deferred-verify tx-ingest throughput",
        [(f"{INGEST_TXS} transfers, {INGEST_SENDERS} senders", f"{tps:,.0f} tx/s")],
        ["workload", "throughput"],
    )


def test_default_vs_batch_ingest():
    """Default ingest against deferred ingest at W=0 and W=2, same 1500 tx.

    One cold round each (fresh node, fresh signatures) through
    ``measure_tx_ingest``.  Not gated and not a pytest-benchmark case: it
    reports ratios between paths of one process, which need no
    machine-speed calibration.  Two workers on one CPU would only measure
    process churn, so that row is skipped there rather than modelled.
    """
    default = measure_tx_ingest(COMPARE_TXS, COMPARE_SENDERS, seed=7)
    rows = [("default (verify at submission)",
             f"{default['tps']:,.0f} tx/s", "1.00x")]
    for workers, label in ((0, "batch_verify=0 (deferred, inline)"),
                           (2, "batch_verify=2 (deferred, two workers)")):
        if workers and (os.cpu_count() or 1) < 2:
            rows.append((label, "skipped: 1 CPU", "--"))
            continue
        deferred = measure_tx_ingest(COMPARE_TXS, COMPARE_SENDERS, seed=7,
                                     batch_verify=workers)
        assert deferred["txs"] == default["txs"] == COMPARE_TXS
        rows.append((label, f"{deferred['tps']:,.0f} tx/s",
                     f"{deferred['tps'] / default['tps']:.2f}x"))
    print_table(
        "default verify vs deferred verify (ingest)", rows,
        [f"{COMPARE_TXS} transfers, {COMPARE_SENDERS} senders", "throughput",
         "vs default"],
    )
