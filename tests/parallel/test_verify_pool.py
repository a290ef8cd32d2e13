"""SignatureVerifyPool: dispatch shapes, verdict stamping, dead workers.

The pool's workers run the default ``verify_signature``; what these tests
hold is the plumbing around it -- which transactions go out, in what
chunks, that verdicts land on the right memo, and that a worker killed
under a dispatch surfaces as ``BrokenProcessPool`` (never a hang) and
costs exactly one dispatch.
"""

import os
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.chain.account import Address
from repro.chain.keys import KeyPair, Signature
from repro.chain.transaction import Transaction
from repro.parallel.verify import (
    SENDER_CHUNK_TARGET,
    SignatureVerifyPool,
    _memoized_verdict,
    _verify_jobs,
)

SENDERS = [KeyPair.from_label(f"par-exec-{i}") for i in range(6)]
RECIPIENTS = [KeyPair.from_label(f"par-recv-{i}") for i in range(6)]

#: Bound on every wait for a pool: a hang must fail the test, not stall it.
JOIN_TIMEOUT = 60


def transfer(sender: KeyPair, to: KeyPair, nonce: int = 0,
             value: int = 1000) -> Transaction:
    return Transaction(
        sender=Address(sender.address),
        to=Address(to.address),
        value=value,
        nonce=nonce,
        gas_limit=21_000,
        gas_price=10**9,
    ).sign(sender)


def mixed_block():
    """Disjoint pairs plus one same-sender nonce chain."""
    txs = [transfer(SENDERS[i], RECIPIENTS[i]) for i in range(4)]
    txs.append(transfer(SENDERS[4], RECIPIENTS[4], nonce=0))
    txs.append(transfer(SENDERS[4], RECIPIENTS[5], nonce=1))
    return txs


def forged(sender: KeyPair, nonce: int = 0) -> Transaction:
    tx = transfer(sender, RECIPIENTS[0], nonce=nonce)
    good = tx.signature
    tx.signature = Signature(e=good.e, s=good.s ^ 1,
                             public_key=good.public_key)
    return tx


def chain_of(sender: KeyPair, count: int):
    return [transfer(sender, RECIPIENTS[1], nonce=nonce)
            for nonce in range(count)]


def within_timeout(function):
    """Run ``function`` on a thread; fail if it outlives ``JOIN_TIMEOUT``."""
    outcome = {}

    def target():
        try:
            outcome["value"] = function()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(JOIN_TIMEOUT)
    assert not thread.is_alive(), "the verify pool hung"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def kill_workers(pool: SignatureVerifyPool) -> None:
    for pid in list(pool._pool._processes):
        os.kill(pid, signal.SIGKILL)


@pytest.fixture()
def pool():
    verify_pool = SignatureVerifyPool(2)
    yield verify_pool
    verify_pool.close()


class TestDispatch:
    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("method", ["prewarm_async",
                                        "batch_prewarm_async"])
    def test_verdicts_land_on_the_right_memo(self, workers, method):
        txs = mixed_block() + [forged(SENDERS[5])]
        warm = txs[0]
        assert warm.verify_signature()
        verify_pool = SignatureVerifyPool(workers)
        try:
            handle = getattr(verify_pool, method)(txs)
            assert handle.jobs_submitted == (len(txs) - 1 if workers else 0)
            assert handle.join() is False
            assert handle.join() is False  # idempotent
        finally:
            verify_pool.close()
        assert [_memoized_verdict(tx) for tx in txs] == \
            [True] * (len(txs) - 1) + [False]

    def test_the_worker_function_agrees_with_an_inline_verify(self):
        # Called here, in process, exactly as a worker calls it.
        grafted = transfer(SENDERS[0], RECIPIENTS[0])
        grafted.signature = transfer(SENDERS[1], RECIPIENTS[0]).signature
        # The sender's own signature, lifted from a different payload.
        replayed = transfer(SENDERS[0], RECIPIENTS[0], value=1)
        replayed.signature = transfer(SENDERS[0], RECIPIENTS[0],
                                      value=999).signature
        txs = mixed_block() + [forged(SENDERS[5]), grafted, replayed]
        assert _verify_jobs([tx.verify_job() for tx in txs]) == \
            [tx.verify_signature() for tx in txs] == \
            [True] * (len(txs) - 3) + [False] * 3

    def test_nothing_cold_never_starts_a_process(self, pool):
        txs = mixed_block()
        assert all(tx.verify_signature() for tx in txs)
        for method in (pool.prewarm_async, pool.batch_prewarm_async):
            handle = method(txs)
            assert handle.jobs_submitted == 0
            assert handle.join() is True
        assert pool.prewarm_async([]).join() is True
        assert pool._pool is None

    def test_sender_packing_never_splits_a_sender(self, pool, monkeypatch):
        # Two small senders share a chunk; a prolific one past the target
        # stays whole in its own; arrival order interleaves them all.
        big = chain_of(SENDERS[2], SENDER_CHUNK_TARGET + 3)
        groups = [chain_of(SENDERS[0], 3), chain_of(SENDERS[1], 3), big,
                  chain_of(SENDERS[3], 2)]
        arrival = [group[0] for group in groups] + \
            [tx for group in groups for tx in group[1:]]
        dispatched = []
        monkeypatch.setattr(
            pool, "_dispatch", lambda chunks: dispatched.extend(chunks))
        pool.batch_prewarm_async(arrival)
        assert dispatched == [groups[0] + groups[1], big, groups[3]]

    def test_even_chunks_cover_every_cold_transaction_in_order(
            self, pool, monkeypatch):
        txs = chain_of(SENDERS[3], 19)
        dispatched = []
        monkeypatch.setattr(
            pool, "_dispatch", lambda chunks: dispatched.extend(chunks))
        pool.prewarm_async(txs)
        assert [tx for chunk in dispatched for tx in chunk] == txs
        assert len(dispatched) <= 4 * pool.workers
        assert max(map(len, dispatched)) - min(map(len, dispatched)) <= 2


class TestDeadWorker:
    def test_kill_under_a_dispatch_raises_and_costs_one_dispatch(self, pool):
        txs = chain_of(SENDERS[0], 40) + chain_of(SENDERS[1], 40)
        handle = pool.batch_prewarm_async(txs)
        kill_workers(pool)
        with pytest.raises(BrokenProcessPool):
            within_timeout(handle.join)
        # The broken pool is gone; the same transactions (whatever was not
        # stamped) go through a fresh one.
        assert pool._pool is None
        retry = pool.batch_prewarm_async(txs)
        assert within_timeout(retry.join) is True
        assert all(_memoized_verdict(tx) is True for tx in txs)

    def test_dispatch_into_a_pool_already_marked_broken_replaces_it(
            self, pool):
        # An abandoned handle (never joined) leaves the broken pool in
        # place; the next dispatch is refused at submit and must drop it.
        # One sleep per worker holds every worker, so the abandoned chunks
        # are still queued when the workers die, however loaded the box.
        for _ in range(pool.workers):
            pool._ensure_pool().submit(time.sleep, JOIN_TIMEOUT)
        abandoned = pool.prewarm_async(chain_of(SENDERS[4], 8))
        kill_workers(pool)
        error = abandoned._futures[0].exception(timeout=JOIN_TIMEOUT)
        assert isinstance(error, BrokenProcessPool)
        txs = chain_of(SENDERS[5], 4)
        with pytest.raises(BrokenProcessPool):
            pool.prewarm_async(txs)
        assert pool._pool is None
        assert within_timeout(pool.prewarm_async(txs).join) is True

    def test_kill_while_idle_fails_the_next_dispatch_only(self, pool):
        first = chain_of(SENDERS[2], 4)
        assert within_timeout(pool.prewarm_async(first).join) is True
        kill_workers(pool)
        second = chain_of(SENDERS[3], 4)

        def dispatch_and_join():
            return pool.prewarm_async(second).join()

        with pytest.raises(BrokenProcessPool):
            within_timeout(dispatch_and_join)
        assert pool._pool is None
        assert within_timeout(dispatch_and_join) is True
