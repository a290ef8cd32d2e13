"""BatchVerifyEngine unit tests: admission, settle, and the one fallback.

The engine adds no arithmetic, so every expectation here is phrased against
the default path: the same exception at admission, the same eviction set at
settle, the same blocks at the end -- including when its worker pool is a
fake that raises, carries a signature the wire format cannot, or has just
been SIGKILLed.
"""

import os
import signal
import threading

import pytest

from repro.batchverify import BatchVerifyEngine
from repro.batchverify.engine import zero_stats
from repro.chain import EthereumNode
from repro.chain.account import Address
from repro.chain.chain import Blockchain, ChainConfig
from repro.chain.keys import GROUP_ORDER, GROUP_PRIME, KeyPair, Signature
from repro.chain.transaction import Transaction
from repro.contracts.registry import default_registry
from repro.errors import InvalidSignatureError
from repro.loadgen.driver import presigned_transfers
from repro.loadgen.report import LoadReport
from repro.obs.adapters import collect_chain
from repro.obs.registry import MetricsRegistry
from repro.storage import state_digest
from repro.utils.units import ether_to_wei

ALICE = KeyPair.from_label("bv-engine-alice")
BOB = KeyPair.from_label("bv-engine-bob")

#: Bound on block production after a worker is killed: a hang must fail.
PRODUCE_TIMEOUT = 60


def transfer(sender: KeyPair = ALICE, nonce: int = 0, **tamper) -> Transaction:
    """A signed transfer; ``tamper`` overrides signature components."""
    tx = Transaction(
        sender=Address(sender.address),
        to=Address(BOB.address),
        value=1,
        nonce=nonce,
        gas_limit=21_000,
        gas_price=10**9,
    ).sign(sender)
    if tamper:
        good = tx.signature
        tx.signature = Signature(**{
            "e": good.e, "s": good.s, "public_key": good.public_key,
            **tamper})
    return tx


def scalar_invalid(txs):
    """The transactions a cold default verify rejects (fresh copies)."""
    return [
        tx for tx in txs
        if not Transaction.from_dict(tx.to_dict()).verify_signature()
    ]


def funded_chain(**flags) -> Blockchain:
    chain = Blockchain(config=ChainConfig(), backend=default_registry(),
                       **flags)
    for keypair in (ALICE, BOB):
        chain.mint(keypair.address, ether_to_wei(5))
    return chain


@pytest.fixture(params=[0, 2], ids=["inline", "two-workers"])
def engine(request):
    subject = BatchVerifyEngine(request.param)
    yield subject
    subject.close()


class TestAdmission:
    def rejection(self, submit, tx):
        with pytest.raises(InvalidSignatureError) as caught:
            submit(tx)
        return type(caught.value), str(caught.value)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: Transaction(
            sender=Address(ALICE.address), to=Address(BOB.address), value=1,
            nonce=0, gas_limit=21_000, gas_price=10**9), id="unsigned"),
        pytest.param(lambda: transfer(public_key=0), id="key-zero"),
        pytest.param(lambda: transfer(public_key=1), id="key-one"),
        pytest.param(lambda: transfer(public_key=GROUP_PRIME),
                     id="key-prime"),
        pytest.param(lambda: transfer(public_key=BOB.public_key),
                     id="wrong-sender"),
    ])
    def test_structural_rejections_are_the_default_paths(self, make):
        default, deferred = funded_chain(), funded_chain(batch_verify=0)
        expected = self.rejection(default.submit_transaction, make())
        assert self.rejection(deferred.submit_transaction, make()) == expected
        assert deferred.batchverify.deferred_admissions == 0
        assert len(deferred.mempool) == 0

    def test_a_memo_known_bad_signature_is_not_readmitted(self):
        default, deferred = funded_chain(), funded_chain(batch_verify=0)
        forged = transfer(s=transfer().signature.s ^ 1)
        expected = self.rejection(default.submit_transaction, forged)
        # The default path's verify left the verdict on the transaction.
        assert self.rejection(deferred.submit_transaction, forged) == expected
        assert deferred.batchverify.deferred_admissions == 0

    def test_cold_forgery_is_admitted_and_warm_valid_is_not_counted(self):
        subject = BatchVerifyEngine(0)
        subject.admission_check(transfer(s=transfer().signature.s ^ 1))
        assert subject.deferred_admissions == 1
        warm = transfer()
        assert warm.verify_signature()
        subject.admission_check(warm)
        assert subject.deferred_admissions == 1


class TestSettle:
    def pending(self):
        honest = transfer()
        return [
            honest,
            transfer(nonce=1, s=honest.signature.s ^ 1),
            transfer(BOB, nonce=0),
            transfer(BOB, nonce=1, e=0),
            transfer(nonce=2, s=transfer(nonce=2).signature.s + GROUP_ORDER),
        ]

    def test_evicts_exactly_the_scalar_invalid_set(self, engine):
        pending = self.pending()
        expected = [tx.hash_hex for tx in scalar_invalid(pending)]
        assert len(expected) == 2
        assert [tx.hash_hex for tx in engine.settle(pending)] == expected
        assert engine.deferred_rejections == 2
        assert engine.blocks_settled == 1
        assert engine.pipeline_fallbacks == 0
        assert engine.verify_jobs_offloaded == \
            (len(pending) if engine.verify_workers else 0)
        # A second settle of the same transactions is all memo hits.
        assert len(engine.settle(pending)) == 2
        assert engine.verify_jobs_offloaded == \
            (len(pending) if engine.verify_workers else 0)

    def test_an_honest_ingest_defers_every_signature_once(self):
        # The shared ingest workload, inline: each cold transfer is deferred
        # exactly once and neither the eviction nor the fallback path runs.
        node, txs = presigned_transfers(40, 4, "bv-engine-ingest")
        chain = node.chain
        chain.enable_batch_verify(0)
        for tx in txs:
            chain.submit_transaction(tx)
        chain.produce_blocks_until_empty()
        assert len(chain.mempool) == 0
        stats = chain.batchverify_stats()
        assert stats["deferred_admissions"] == len(txs)
        assert stats["deferred_rejections"] == 0
        assert stats["pipeline_fallbacks"] == 0

    def test_a_signature_the_wire_cannot_carry_settles_inline(self):
        # s - q is the same group element as s, so the signature is valid,
        # but Signature.to_dict has no encoding for a negative integer: the
        # dispatch fails, is counted, and the verdict comes from inline.
        subject = BatchVerifyEngine(2)
        try:
            good = transfer()
            negative = transfer(nonce=1,
                                s=transfer(nonce=1).signature.s - GROUP_ORDER)
            assert subject.settle([good, negative]) == []
            assert subject.fallback_reasons == {"OverflowError": 1}
            assert subject.pipeline_fallbacks == 1
        finally:
            subject.close()

    def test_a_warm_mempool_starts_no_process(self):
        subject = BatchVerifyEngine(2)
        warm = [transfer(), transfer(nonce=1)]
        assert all(tx.verify_signature() for tx in warm)
        assert subject.settle(warm) == []
        assert subject.settle([]) == []
        assert subject.verify_jobs_offloaded == 0
        assert subject._pool._pool is None

    def test_negative_worker_count_is_refused(self):
        with pytest.raises(ValueError):
            BatchVerifyEngine(-1)


class RaisingPool:
    """A verify pool whose every dispatch fails."""

    def __init__(self, error: Exception) -> None:
        self.error = error

    def batch_prewarm_async(self, transactions):
        raise self.error

    def close(self) -> None:
        pass


class RaisingHandle:
    """An in-flight dispatch whose join fails."""

    jobs_submitted = 2

    def join(self) -> bool:
        raise ConnectionResetError("worker pipe closed")


class RaisingJoinPool:
    """A verify pool whose every dispatch succeeds and every join fails."""

    def batch_prewarm_async(self, transactions):
        return RaisingHandle()


class TestFallback:
    def test_a_raising_pool_gives_scalar_verdicts_and_a_counted_reason(self):
        subject = BatchVerifyEngine(2)
        subject._pool = RaisingPool(RuntimeError("boom"))
        pending = TestSettle().pending()
        expected = [tx.hash_hex for tx in scalar_invalid(pending)]
        assert [tx.hash_hex for tx in subject.settle(pending)] == expected
        assert subject.pipeline_fallbacks == 1
        assert subject.stats["fallback_reasons"] == {"RuntimeError": 1}

    def test_a_failing_join_gives_scalar_verdicts_and_a_counted_reason(self):
        subject = BatchVerifyEngine(0)
        subject._pool = RaisingJoinPool()
        pending = TestSettle().pending()
        expected = [tx.hash_hex for tx in scalar_invalid(pending)]
        assert [tx.hash_hex for tx in subject.settle(pending)] == expected
        assert subject.fallback_reasons == {"ConnectionResetError": 1}
        assert subject.pipeline_fallbacks == 1
        # Jobs whose join failed were verified here, not offloaded.
        assert subject.verify_jobs_offloaded == 0

    def test_reasons_reach_the_metric_label_and_the_report_line(self):
        chain = funded_chain(batch_verify=1)
        chain.batchverify._pool = RaisingPool(OSError("cannot fork"))
        chain.submit_transaction(transfer())
        chain.produce_blocks_until_empty()
        assert chain.height == 1
        # Every dispatch this fake sees fails, even an empty one.
        count = chain.batchverify.pipeline_fallbacks
        assert count >= 1
        registry = MetricsRegistry()
        collect_chain(registry, chain, "node")
        assert ('repro_batchverify_fallbacks_total'
                f'{{replica="node",reason="OSError"}} {count}'
                ) in registry.render_prometheus().splitlines()
        summary = LoadReport(
            config={}, batchverify_stats=chain.batchverify_stats()).summary()
        assert f", {count} fallbacks: {count} OSError)" in summary

    def test_no_fallbacks_keeps_the_report_line_short(self):
        chain = funded_chain(batch_verify=0)
        chain.submit_transaction(transfer())
        chain.produce_blocks_until_empty()
        lines = [line for line in LoadReport(
            config={}, batchverify_stats=chain.batchverify_stats()
        ).summary().splitlines() if line.startswith("batch verify:")]
        settles = chain.batchverify.blocks_settled
        assert lines == [
            f"batch verify: 0 workers, 1 signatures deferred over {settles} "
            "settles (0 evicted)"]


class TestZeroStats:
    def test_matches_a_fresh_engine(self):
        assert zero_stats() == BatchVerifyEngine(0).stats

    def test_a_chain_with_the_engine_off_builds_nothing(self):
        chain = funded_chain()
        stats = chain.batchverify_stats()
        assert stats == zero_stats()
        assert chain.batchverify is None
        stats["fallback_reasons"]["mutated"] = 1
        assert chain.batchverify_stats() == zero_stats()


@pytest.mark.timeout(120)
class TestKilledWorker:
    TXS = 120
    PER_BLOCK = 30

    def node(self, **flags) -> EthereumNode:
        return EthereumNode(
            config=ChainConfig(block_gas_limit=21_000 * self.PER_BLOCK),
            backend=default_registry(), **flags)

    def workload(self, node: EthereumNode):
        """Presigned transfers plus one forgery, deterministic per label."""
        node, txs = presigned_transfers(self.TXS, 6, "bv-engine-kill",
                                        node=node)
        good = txs[-1].signature
        txs[-1].signature = Signature(e=good.e, s=good.s ^ 1,
                                      public_key=good.public_key)
        return node.chain, txs

    def test_sigkill_mid_settle_completes_with_serial_blocks(self):
        reference, txs = self.workload(self.node())
        for tx in txs[:-1]:
            reference.submit_transaction(tx)
        with pytest.raises(InvalidSignatureError):
            reference.submit_transaction(txs[-1])
        reference.produce_blocks_until_empty()

        chain, txs = self.workload(self.node(batch_verify=2))
        engine = chain.batchverify
        try:
            for tx in txs:
                chain.submit_transaction(tx)
            pool = engine._pool
            dispatch = pool.batch_prewarm_async

            def dispatch_then_kill(transactions):
                # The first settle's chunks are in flight on live workers
                # when they die; the join that follows must not hang.
                pool.batch_prewarm_async = dispatch
                handle = dispatch(transactions)
                assert handle.jobs_submitted == len(txs)
                for pid in list(pool._pool._processes):
                    os.kill(pid, signal.SIGKILL)
                return handle

            pool.batch_prewarm_async = dispatch_then_kill

            producer = threading.Thread(
                target=chain.produce_blocks_until_empty, daemon=True)
            producer.start()
            producer.join(PRODUCE_TIMEOUT)
            assert not producer.is_alive(), "block production hung"

            assert len(chain.mempool) == 0
            assert engine.fallback_reasons == {"BrokenProcessPool": 1}
            assert engine.deferred_rejections == 1
            assert [chain.get_block(n).hash
                    for n in range(chain.height + 1)] == \
                [reference.get_block(n).hash
                 for n in range(reference.height + 1)]
            assert state_digest(chain.state) == state_digest(reference.state)
            assert txs[-1].hash_hex not in chain._receipts

            # The broken pool was replaced: the next settle offloads again.
            more = [transfer(), transfer(BOB)]
            offloaded = engine.verify_jobs_offloaded
            assert engine.settle(more) == []
            assert engine.verify_jobs_offloaded == offloaded + len(more)
            assert engine.pipeline_fallbacks == 1
        finally:
            engine.close()
