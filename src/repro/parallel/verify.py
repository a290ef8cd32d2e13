"""Out-of-process Schnorr signature verification for the parallel executor.

Signature checks are pure CPU (modular exponentiation in the 2048-bit RFC
3526 group, see ``repro.chain.keys``) and touch no chain state, so they are
the one phase that genuinely benefits from *processes* rather than threads.
Each worker process keeps its own per-sender tables.  The pool pipelines
with state application: the executor submits every cold (not-yet-memoized)
signature as soon as a block is planned, lets the scoped wave execution
overlap with the verifies, and joins the results just before the first
shared-state side effect.  Any failed verify aborts the parallel attempt
before anything was committed, so the serial path (which raises
``InvalidSignatureError`` at the offending position) stays observably
identical.

Verification results are stamped back onto the transaction's memo fields
(``_verified_signature`` / ``_verified_ok``) exactly as
:meth:`Transaction.verify_signature` would, so the eventual serial-order
apply hits the memo and never re-verifies.

The pool is created lazily (the first block that needs it) and prefers the
``fork`` start method -- cheap on Linux, no import re-execution -- falling
back to the default context elsewhere.  ``verify_workers=0`` disables the
pool entirely: verifies run inline on the coordinator thread, which is the
right choice under pytest and on single-CPU hosts where process churn costs
more than it saves.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chain.account import Address
from repro.chain.keys import Signature, recover_address
from repro.chain.transaction import Transaction
from repro.errors import InvalidSignatureError

#: One verify job: (signature dict, transaction hash bytes, sender address).
VerifyJob = Tuple[Dict[str, Any], bytes, str]


def _batch_verify_jobs(
        jobs: Sequence[VerifyJob]) -> Tuple[List[bool], Dict[str, int]]:
    """Worker-side batch verify: one RLC-checked batch per chunk (picklable).

    Runs the chunk through the process-wide :class:`~repro.batchverify.
    batch.BatchVerifier`, whose per-sender comb tables stay warm across
    blocks because the pool's worker processes persist.  Returns the per-job
    verdicts -- byte-identical to mapping :func:`_verify_job` -- plus the
    verifier's counter delta so the coordinator can aggregate stats that
    live in other processes.
    """
    # Imported lazily: repro.batchverify imports this module for the pool,
    # so the module level must not import it back.
    from repro.batchverify.batch import default_verifier

    verifier = default_verifier()
    before = verifier.stats.to_dict()
    verdicts = verifier.verify_transactions(jobs)
    after = verifier.stats.to_dict()
    return verdicts, {key: after[key] - before[key] for key in after}


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


class SignatureVerifyPool:
    """Lazily-started multiprocessing pool for batch signature verification."""

    def __init__(self, workers: int) -> None:
        self.workers = max(0, int(workers))
        self._pool: Optional[multiprocessing.pool.Pool] = None

    def _ensure_pool(self) -> "multiprocessing.pool.Pool":
        if self._pool is None:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX hosts
                context = multiprocessing.get_context()
            self._pool = context.Pool(processes=self.workers)
        return self._pool

    def prewarm_async(self, transactions: Sequence[Transaction]) -> "VerifyHandle":
        """Kick off verifies for every cold-memo transaction; returns a handle.

        Transactions whose memo is already warm (the mempool verifies at
        admission, so in steady state that is *all* of them) are skipped --
        the handle then joins instantly.
        """
        cold: List[Transaction] = [
            tx for tx in transactions if _memoized_verdict(tx) is None
        ]
        if not cold:
            return VerifyHandle(cold=[], result=None)
        jobs: List[VerifyJob] = [tx.verify_job() for tx in cold]
        if self.workers == 0:
            verdicts = [_verify_job(job) for job in jobs]
            for tx, verdict in zip(cold, verdicts):
                _stamp(tx, verdict)
            return VerifyHandle(cold=[], result=None, all_ok=all(verdicts))
        result = self._ensure_pool().map_async(_verify_job, jobs)
        return VerifyHandle(cold=cold, result=result)

    def batch_prewarm_async(
        self,
        transactions: Sequence[Transaction],
        chunk_size: int = 64,
    ) -> "BatchVerifyHandle":
        """Kick off *batch* verifies for every cold-memo transaction.

        Like :meth:`prewarm_async`, but each worker receives a whole chunk
        and settles it with one random-linear-combination check
        (``repro.batchverify``) instead of N scalar verifies.  Chunks are
        grouped by sender (first-seen order) so a sender's signatures land
        on the same worker and hit the same warm comb table; groups are
        packed up to ``chunk_size`` but never split.
        """
        cold: List[Transaction] = [
            tx for tx in transactions if _memoized_verdict(tx) is None
        ]
        if not cold:
            return BatchVerifyHandle(chunks=[], result=None)
        if self.workers == 0:
            jobs = [tx.verify_job() for tx in cold]
            verdicts, stats = _batch_verify_jobs(jobs)
            for tx, verdict in zip(cold, verdicts):
                _stamp(tx, verdict)
            return BatchVerifyHandle(
                chunks=[], result=None, all_ok=all(verdicts),
                stats_delta=stats,
            )
        grouped: Dict[str, List[Transaction]] = {}
        for tx in cold:
            grouped.setdefault(str(tx.sender), []).append(tx)
        chunks: List[List[Transaction]] = []
        current: List[Transaction] = []
        for group in grouped.values():
            if current and len(current) + len(group) > chunk_size:
                chunks.append(current)
                current = []
            current.extend(group)
        if current:
            chunks.append(current)
        job_chunks = [[tx.verify_job() for tx in chunk] for chunk in chunks]
        result = self._ensure_pool().map_async(_batch_verify_jobs, job_chunks)
        return BatchVerifyHandle(chunks=chunks, result=result)

    def close(self) -> None:
        """Tear the worker processes down (no-op when never started)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None


class VerifyHandle:
    """Join point for one block's in-flight signature verifies."""

    def __init__(
        self,
        cold: List[Transaction],
        result: Optional["multiprocessing.pool.MapResult"],
        all_ok: bool = True,
    ) -> None:
        self._cold = cold
        self._result = result
        self._all_ok = all_ok
        self._joined = result is None
        #: Verifies actually farmed out to worker processes (stats export).
        self.jobs_submitted = len(cold)

    def join(self) -> bool:
        """Block until every verify lands; stamp memos; ``True`` if all valid."""
        if not self._joined:
            verdicts = self._result.get()
            for tx, verdict in zip(self._cold, verdicts):
                _stamp(tx, verdict)
            self._all_ok = all(verdicts)
            self._joined = True
        return self._all_ok


class BatchVerifyHandle:
    """Join point for one pipeline kick's in-flight *batch* verifies."""

    def __init__(
        self,
        chunks: List[List[Transaction]],
        result: Optional["multiprocessing.pool.MapResult"],
        all_ok: bool = True,
        stats_delta: Optional[Dict[str, int]] = None,
    ) -> None:
        self._chunks = chunks
        self._result = result
        self._all_ok = all_ok
        self._joined = result is None
        #: Aggregated worker-side verifier counter deltas (merged on join).
        self.stats_delta: Dict[str, int] = dict(stats_delta or {})
        #: Verifies actually farmed out to worker processes (stats export).
        self.jobs_submitted = sum(len(chunk) for chunk in chunks)

    def join(self) -> bool:
        """Block until every chunk settles; stamp memos; ``True`` if all valid."""
        if not self._joined:
            all_ok = True
            for chunk, (verdicts, delta) in zip(self._chunks,
                                                self._result.get()):
                for tx, verdict in zip(chunk, verdicts):
                    _stamp(tx, verdict)
                all_ok = all_ok and all(verdicts)
                for key, value in delta.items():
                    self.stats_delta[key] = self.stats_delta.get(key, 0) + value
            self._all_ok = all_ok
            self._joined = True
        return self._all_ok
