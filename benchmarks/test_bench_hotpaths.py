"""Gated hot-path micro-benchmarks: the CI perf job fails on regressions.

Unlike the figure-reproduction benchmarks (which run a full marketplace),
these are fast, ML-free measurements of the ingest hot paths the PR-4 work
optimized.  Every benchmark here is *gated*: ``benchmarks/compare.py``
checks each one against ``benchmarks/baseline.json`` and fails CI when a
gated benchmark regresses by more than the threshold (25% by default).

To absorb machine-speed differences between the baseline recorder and the
CI runner, comparisons are *normalized*: each benchmark's time is divided
by the ``calibration`` benchmark's time on the same machine (a fixed pure-
Python workload), so the gate compares "how many calibration units does
this path cost" rather than raw seconds.

Everything is seeded: key pairs derive from fixed labels and the workload
shapes are constants, so two runs measure the identical work.
"""

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.chain.account import Address
from repro.chain.chain import ChainConfig
from repro.chain.mempool import Mempool
from repro.chain.transaction import Transaction
from repro.contracts import default_registry
# The ingest workload fixture is shared with repro.loadgen.measure_tx_ingest,
# so the gated benchmark and the sweep's wall-clock number measure ONE path.
from repro.loadgen.driver import presigned_transfers
from repro.rpc import JsonRpcGateway, MarketplaceClient
from repro.utils.units import ether_to_wei

from .conftest import print_table

INGEST_TXS = 200
INGEST_SENDERS = 10
SELECT_POOL_SIZE = 1_000
READ_CALLS = 300


def test_bench_calibration(benchmark):
    """Machine-speed reference: a fixed pure-Python workload.

    Not gated itself -- it is the denominator every gated benchmark is
    normalized by.
    """

    def spin():
        total = 0
        for i in range(200_000):
            total += (i * i) % 1_000_003
        return total

    benchmark.pedantic(spin, rounds=5, iterations=1, warmup_rounds=1)


def test_bench_tx_ingest(benchmark):
    """Submit + mine INGEST_TXS pre-signed transfers (the 3x target path)."""

    def setup():
        return (presigned_transfers(INGEST_TXS, INGEST_SENDERS, "bench-ingest"),), {}

    def ingest(payload):
        node, transactions = payload
        for tx in transactions:
            node.chain.submit_transaction(tx)
        node.chain.produce_blocks_until_empty(max_blocks=1 + INGEST_TXS // 100)
        assert len(node.chain.mempool) == 0

    benchmark.pedantic(ingest, setup=setup, rounds=5, iterations=1,
                       warmup_rounds=1)
    tps = INGEST_TXS / benchmark.stats.stats.mean
    print_table(
        "tx-ingest throughput",
        [(f"{INGEST_TXS} transfers, {INGEST_SENDERS} senders", f"{tps:,.0f} tx/s")],
        ["workload", "throughput"],
    )


def test_bench_mempool_select(benchmark):
    """Fee-priority block selection over a deep pending pool."""
    node, transactions = presigned_transfers(
        SELECT_POOL_SIZE, 25, "bench-select", fund_wei=ether_to_wei(10))
    pool = Mempool(max_size=SELECT_POOL_SIZE + 1)
    for tx in transactions:
        pool.add(tx)
    state = node.chain.state

    def select():
        return pool.select_for_block(state, gas_limit=30_000_000)

    result = benchmark.pedantic(select, rounds=5, iterations=2, warmup_rounds=1)
    assert len(result) == 500  # the per-block candidate cap
    print_table(
        "mempool selection",
        [(f"{SELECT_POOL_SIZE} pending -> 500 selected",
          f"{benchmark.stats.stats.mean * 1000:.2f} ms")],
        ["workload", "per block"],
    )


def test_bench_rpc_reads(benchmark):
    """Hot chain reads through the full gateway dispatch path."""
    node = EthereumNode(config=ChainConfig(), backend=default_registry())
    account = KeyPair.from_label("bench-read-account")
    Faucet(node).drip(account.address, ether_to_wei(5))
    client = MarketplaceClient(JsonRpcGateway(node=node))

    def reads():
        for _ in range(READ_CALLS):
            client.eth.get_balance(account.address)

    benchmark.pedantic(reads, rounds=5, iterations=1, warmup_rounds=1)
    rps = READ_CALLS / benchmark.stats.stats.mean
    print_table(
        "gateway read throughput",
        [(f"eth_getBalance x{READ_CALLS}", f"{rps:,.0f} req/s")],
        ["workload", "throughput"],
    )


def test_bench_signature_verify(benchmark):
    """One full (non-memoized) Schnorr verification."""
    keypair = KeyPair.from_label("bench-verify")
    tx = Transaction(sender=Address(keypair.address),
                     to=Address(KeyPair.from_label("bench-verify-sink").address),
                     value=1, nonce=0, gas_limit=21_000)
    tx.sign(keypair)

    def verify():
        # Drop the memo so every round pays the real verification.
        object.__setattr__(tx, "_verified_signature", None)
        assert tx.verify_signature()

    benchmark.pedantic(verify, rounds=5, iterations=10, warmup_rounds=1)
    print_table(
        "signature verification",
        [("schnorr verify (cold memo)",
          f"{benchmark.stats.stats.mean * 1000:.2f} ms")],
        ["operation", "per verification"],
    )
