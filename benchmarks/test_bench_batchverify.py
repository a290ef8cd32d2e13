"""Gated batch-verification benchmarks: the CI perf job fails on regressions.

Two measurements pin the ``repro.batchverify`` win (and its overhead) the
same way ``test_bench_hotpaths.py`` pins the PR-4 scalar hot paths:

* ``test_bench_batch_verify`` -- one RLC-checked batch of cold Schnorr
  signatures through :class:`BatchVerifier.verify_batch`, per-sender comb
  tables warm (the steady state of a long-lived verifier process);
* ``test_bench_batch_ingest`` -- the shared ``presigned_transfers`` ingest
  workload with deferred batch verification enabled, comparable 1:1 with
  ``test_bench_tx_ingest`` (scalar) and ``test_bench_parallel_ingest``.

A third, ungated case -- ``test_default_vs_batch_ingest`` -- times the
default scalar path against the batch engine on the BENCH_PR10 workload and
prints both: since the default ``verify_signature`` keeps its own per-sender
table, that comparison is the evidence ROADMAP item 2(a) needs to keep or
delete the engine (recorded in docs/performance.md).

All run the engine inline (``verify_workers=0``): worker processes add
fork/IPC noise CI runners amplify, and the arithmetic -- comb tables,
Montgomery inversion, the Straus multi-exponentiation -- is what the gate
must keep honest.  Everything derives from fixed labels, so two runs
measure the identical work.
"""

from repro.batchverify import BatchVerifier, BatchVerifyConfig
from repro.chain import KeyPair
from repro.loadgen.driver import measure_tx_ingest, presigned_transfers
from repro.utils.hashing import keccak256

from .conftest import print_table

BATCH_SIZE = 64
BATCH_SENDERS = 8
INGEST_TXS = 200
INGEST_SENDERS = 10
#: The BENCH_PR10.json workload (seed 7 fixes the sender labels).
COMPARE_TXS = 1500
COMPARE_SENDERS = 20


def _batch_items():
    keypairs = [KeyPair.from_label(f"bench-batch-{i}")
                for i in range(BATCH_SENDERS)]
    items = []
    for index in range(BATCH_SIZE):
        keypair = keypairs[index % BATCH_SENDERS]
        message = keccak256(b"bench-batch-msg-%d" % index)
        items.append((keypair.sign(message), message, keypair.address))
    return items


def test_bench_batch_verify(benchmark):
    """One warm-comb RLC batch of BATCH_SIZE signatures, all valid."""
    items = _batch_items()
    verifier = BatchVerifier()
    # Warm the per-sender comb tables: steady state for a verifier process.
    assert verifier.verify_batch(items) == [True] * BATCH_SIZE

    def verify():
        assert verifier.verify_batch(items) == [True] * BATCH_SIZE

    benchmark.pedantic(verify, rounds=5, iterations=1, warmup_rounds=1)
    per_sig = benchmark.stats.stats.mean / BATCH_SIZE * 1000
    print_table(
        "batch signature verification",
        [(f"{BATCH_SIZE} sigs, {BATCH_SENDERS} senders, warm combs",
          f"{per_sig:.3f} ms/sig")],
        ["workload", "amortized"],
    )
    assert verifier.stats.rlc_failures == 0


def test_bench_batch_ingest(benchmark):
    """The shared ingest workload with deferred batch verification."""

    def setup():
        payload = presigned_transfers(INGEST_TXS, INGEST_SENDERS,
                                      "bench-batch-ingest")
        payload[0].chain.enable_batch_verify(
            BatchVerifyConfig(verify_workers=0))
        return (payload,), {}

    def ingest(payload):
        node, transactions = payload
        for tx in transactions:
            node.chain.submit_transaction(tx)
        node.chain.produce_blocks_until_empty(max_blocks=1 + INGEST_TXS // 100)
        assert len(node.chain.mempool) == 0
        stats = node.chain.batchverify_stats()
        assert stats["verifier"]["signatures"] >= INGEST_TXS
        assert stats["deferred_rejections"] == 0
        node.chain.batchverify.close()

    benchmark.pedantic(ingest, setup=setup, rounds=5, iterations=1,
                       warmup_rounds=1)
    tps = INGEST_TXS / benchmark.stats.stats.mean
    print_table(
        "batch-verified tx-ingest throughput",
        [(f"{INGEST_TXS} transfers, {INGEST_SENDERS} senders", f"{tps:,.0f} tx/s")],
        ["workload", "throughput"],
    )


def test_default_vs_batch_ingest():
    """Default ingest against ``batch_verify=0`` ingest, same 1500 tx.

    One cold round each (fresh node, fresh signatures) through
    ``measure_tx_ingest``, the function BENCH_PR10.json was recorded with.
    Not gated and not a pytest-benchmark case: it reports a ratio between
    two paths of one process, which needs no machine-speed calibration.
    """
    default = measure_tx_ingest(COMPARE_TXS, COMPARE_SENDERS, seed=7)
    batch = measure_tx_ingest(COMPARE_TXS, COMPARE_SENDERS, seed=7,
                              batch_verify=0)
    assert default["txs"] == batch["txs"] == COMPARE_TXS
    print_table(
        "default scalar verify vs deferred batch verify (ingest)",
        [("default (per-sender table in verify_signature)",
          f"{default['tps']:,.0f} tx/s", "1.00x"),
         ("batch_verify=0 (RLC batch engine, inline)",
          f"{batch['tps']:,.0f} tx/s",
          f"{batch['tps'] / default['tps']:.2f}x")],
        [f"{COMPARE_TXS} transfers, {COMPARE_SENDERS} senders", "throughput",
         "vs default"],
    )
