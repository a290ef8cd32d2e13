"""Out-of-process Schnorr signature verification.

Signature checks are pure CPU (modular exponentiation in the 2048-bit RFC
3526 group, see ``repro.chain.keys``) and touch no chain state, so they are
the one phase that genuinely benefits from *processes* rather than threads.
Every worker runs the one authoritative check, :func:`_verify_job` ->
``verify_signature``, and keeps its own per-sender tables.  The owner
(``repro.batchverify``) dispatches every cold (not-yet-memoized) signature
and joins the handle before it evicts anything, so a failed verify is
decided before any shared-state write.

Verification results are stamped back onto the transaction's memo fields
(``_verified_signature`` / ``_verified_ok``) exactly as
:meth:`Transaction.verify_signature` would, so the eventual serial-order
apply hits the memo and never re-verifies.

The pool is created lazily (the first dispatch that needs it) and prefers the
``fork`` start method -- cheap on Linux, no import re-execution -- falling
back to the default context elsewhere.  It is a
``concurrent.futures.ProcessPoolExecutor`` because that notices a dead
worker: a killed process fails every in-flight future with
``BrokenProcessPool`` instead of leaving the join waiting forever, and the
pool is then dropped and rebuilt on the next use.  ``workers=0``
disables the pool entirely: verifies run inline on the coordinator thread,
which is the right choice under pytest and on single-CPU hosts where process
churn costs more than it saves.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chain.account import Address
from repro.chain.keys import Signature, recover_address
from repro.chain.transaction import Transaction
from repro.errors import InvalidSignatureError

#: One verify job: (signature dict, transaction hash bytes, sender address).
VerifyJob = Tuple[Dict[str, Any], bytes, str]


def _verify_job(job: VerifyJob) -> bool:
    """Worker-side verify: rebuild the signature and check it (picklable).

    Mirrors :meth:`Transaction.verify_signature` exactly -- recover the
    signer address from the Schnorr signature and compare to the claimed
    sender -- so the memoized verdict is indistinguishable from an inline
    verify.
    """
    sig_dict, tx_hash, sender = job
    signature = Signature.from_dict(sig_dict)
    try:
        recovered = recover_address(signature, tx_hash)
    except InvalidSignatureError:
        return False
    return Address(recovered) == Address(sender)


def _verify_jobs(jobs: Sequence[VerifyJob]) -> List[bool]:
    """One chunk of :func:`_verify_job` verdicts: what a worker is sent."""
    return [_verify_job(job) for job in jobs]


def _stamp(tx: Transaction, verdict: bool) -> None:
    """Record a verify verdict on the (frozen) transaction's memo fields."""
    object.__setattr__(tx, "_verified_signature", tx.signature)
    object.__setattr__(tx, "_verified_ok", verdict)


def _memoized_verdict(tx: Transaction) -> Optional[bool]:
    """The memoized verify verdict, or ``None`` when the memo is cold.

    An unsigned transaction is "warm" with verdict ``False``: there is no
    Schnorr work to farm out, and :meth:`Transaction.verify_signature`
    short-circuits to ``False`` before consulting its memo anyway.
    """
    signature = tx.signature
    if signature is None:
        return False
    if getattr(tx, "_verified_signature", None) is signature:
        return bool(getattr(tx, "_verified_ok", False))
    return None


def _cold(transactions: Sequence[Transaction]) -> List[Transaction]:
    return [tx for tx in transactions if _memoized_verdict(tx) is None]


#: Most transactions packed into one per-sender chunk; a single sender's
#: group is never split, so a prolific sender may exceed it.
SENDER_CHUNK_TARGET = 64


class SignatureVerifyPool:
    """Lazily-started process pool for Schnorr signature verification."""

    def __init__(self, workers: int) -> None:
        self.workers = max(0, int(workers))
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX hosts
                context = multiprocessing.get_context()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context)
        return self._pool

    def prewarm_async(self, transactions: Sequence[Transaction]) -> "VerifyHandle":
        """Kick off verifies for every cold-memo transaction; returns a handle.

        Transactions whose memo is already warm (the mempool verifies at
        admission, so in steady state that is *all* of them) are skipped --
        the handle then joins instantly.  The cold ones go out in block
        order, cut into equal chunks, four per worker.
        """
        cold = _cold(transactions)
        size = max(1, -(-len(cold) // max(1, 4 * self.workers)))
        return self._dispatch(
            [cold[start:start + size] for start in range(0, len(cold), size)])

    def batch_prewarm_async(
            self, transactions: Sequence[Transaction]) -> "VerifyHandle":
        """Like :meth:`prewarm_async`, with chunks packed by sender.

        A sender's signatures (senders in first-seen order) land in one
        chunk, hence on one worker, so the sender's memoized ``y^-1``
        (``repro.chain.keys.inverse_cache``) is computed once per pool
        instead of once per worker.  The verify itself keeps no per-sender
        state.  Groups are packed up to :data:`SENDER_CHUNK_TARGET` but
        never split.
        """
        grouped: Dict[str, List[Transaction]] = {}
        for tx in _cold(transactions):
            grouped.setdefault(str(tx.sender), []).append(tx)
        chunks: List[List[Transaction]] = []
        current: List[Transaction] = []
        for group in grouped.values():
            if current and len(current) + len(group) > SENDER_CHUNK_TARGET:
                chunks.append(current)
                current = []
            current.extend(group)
        if current:
            chunks.append(current)
        return self._dispatch(chunks)

    def _dispatch(self, chunks: List[List[Transaction]]) -> "VerifyHandle":
        """One future per chunk; with no workers, verify here and now."""
        if self.workers == 0 or not chunks:
            # A list, not a generator: every memo is stamped even after the
            # first invalid signature.
            verdicts = [tx.verify_signature() for chunk in chunks for tx in chunk]
            return VerifyHandle(self, [], [], all_ok=all(verdicts))
        pool = self._ensure_pool()
        try:
            futures = [
                pool.submit(_verify_jobs, [tx.verify_job() for tx in chunk])
                for chunk in chunks
            ]
        except BrokenProcessPool:
            self.close()
            raise
        return VerifyHandle(self, chunks, futures)

    def close(self) -> None:
        """Tear the worker processes down (no-op when never started).

        Chunks not yet started are cancelled.  The next dispatch starts a
        fresh pool, which is also how one broken by a dead worker is
        replaced.
        """
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.shutdown(wait=True, cancel_futures=True)


class VerifyHandle:
    """Join point for one dispatch's in-flight signature verifies."""

    def __init__(
        self,
        pool: SignatureVerifyPool,
        chunks: List[List[Transaction]],
        futures: List[Future],
        all_ok: bool = True,
    ) -> None:
        self._pool = pool
        self._chunks = chunks
        self._futures = futures
        self._all_ok = all_ok
        #: Verifies actually farmed out to worker processes (stats export).
        self.jobs_submitted = sum(len(chunk) for chunk in chunks)

    def join(self) -> bool:
        """Block until every verify lands; stamp memos; ``True`` if all valid.

        Raises ``BrokenProcessPool`` when a worker died under the dispatch.
        The broken pool is dropped first, so the owner's next dispatch
        starts a fresh one; the caller verifies this dispatch itself.
        """
        if self._futures:
            try:
                results = [future.result() for future in self._futures]
            except BrokenProcessPool:
                self._pool.close()
                raise
            self._futures = []
            for chunk, verdicts in zip(self._chunks, results):
                for tx, verdict in zip(chunk, verdicts):
                    _stamp(tx, verdict)
                self._all_ok = self._all_ok and all(verdicts)
        return self._all_ok
