"""Chain-side engine: deferred admission, settle, pipelined kicks.

The default ingest path verifies every signature at submission time, inside
the caller's thread, before the transaction may enter the mempool.  With
this engine enabled the chain defers that work: submission performs only
the *structural* checks (a signature is present, its public key is in range
and hashes to the claimed sender -- anything else raises the exact
``InvalidSignatureError`` the default path would), and the Schnorr check of
everything admitted settles at the top of block production.

Settling happens *before* mempool selection and evicts every transaction
whose deferred verdict came back ``False``.  Selection therefore sees
exactly the set of valid transactions the default path would have admitted,
in the same arrival order -- which is what makes these blocks
fingerprint-identical to serial ones.

There is one signature arithmetic: every verdict, in a worker process or
inline, is ``repro.chain.keys.verify_signature``'s.  What the engine adds
is *when* and *where* it runs.  The **pipeline** overlaps the next block's
verification with the current block's execution and persistence: right
after selection the engine kicks the still-cold pending transactions (the
ones selection left behind, i.e. next block's candidates) onto the worker
pool, and joins them at the next block's settle.  The pool has one
fallback: if it fails -- a dead worker, a failed fork -- the engine counts
the failure by its exception class and the settle verifies inline, before a
single shared-state write, so a crashing worker degrades throughput, never
correctness.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from repro.chain.account import Address
from repro.chain.keys import GROUP_PRIME, address_from_public_key
from repro.chain.transaction import Transaction
from repro.errors import InvalidSignatureError
from repro.parallel.verify import (
    SignatureVerifyPool,
    VerifyHandle,
    _memoized_verdict,
)


def zero_stats() -> Dict[str, Any]:
    """:attr:`BatchVerifyEngine.stats` of an engine that has done nothing.

    What a chain with the engine off reports, without building an engine
    and its pool to read zeroes.
    """
    return {
        "verify_workers": 0,
        "blocks_settled": 0,
        "deferred_admissions": 0,
        "deferred_rejections": 0,
        "pipeline_kicks": 0,
        "pipeline_joins": 0,
        "pipeline_fallbacks": 0,
        "fallback_reasons": {},
        "verify_jobs_offloaded": 0,
        "overlap_seconds": 0.0,
        "join_wait_seconds": 0.0,
    }


class BatchVerifyEngine:
    """Owns the deferred-verification lifecycle for one chain.

    ``verify_workers`` is the size of the signature-verify pool.  ``0``
    settles inline on the coordinator thread: deferred admission without
    the pipeline.
    """

    def __init__(self, verify_workers: int = 0) -> None:
        if verify_workers < 0:
            raise ValueError(
                f"verify_workers must be >= 0, got {verify_workers}")
        self.verify_workers = verify_workers
        self._pool = SignatureVerifyPool(verify_workers)
        self._inflight: Optional[VerifyHandle] = None
        self._kick_started: float = 0.0
        self.blocks_settled = 0
        self.deferred_admissions = 0
        self.deferred_rejections = 0
        self.pipeline_kicks = 0
        self.pipeline_joins = 0
        #: Pool failures answered by verifying inline, in total and by the
        #: class name of the exception that caused each.
        self.pipeline_fallbacks = 0
        self.fallback_reasons: Dict[str, int] = {}
        self.verify_jobs_offloaded = 0
        #: Wall-clock the pipeline verified *while* the chain executed and
        #: persisted (kick -> join-start); the overlap the pipeline exists
        #: to create.
        self.overlap_seconds = 0.0
        #: Wall-clock the settle actually blocked on in-flight workers
        #: (join-start -> join-end); near zero when the pipeline keeps up.
        self.join_wait_seconds = 0.0

    # -- admission -----------------------------------------------------------

    def admission_check(self, tx: Transaction) -> None:
        """Structural checks at submission; Schnorr math is deferred.

        Raises the scalar path's exact ``InvalidSignatureError`` for
        everything decidable without exponentiation: a missing signature, an
        out-of-range public key, or a key that does not hash to the claimed
        sender (which is how a wrong-key forgery fails the scalar address
        recovery).  A transaction whose verify memo is already warm is
        judged by it -- deferral never un-rejects a known-bad signature.
        """
        verdict = _memoized_verdict(tx)
        if verdict is None:
            public_key = tx.signature.public_key
            if 1 < public_key < GROUP_PRIME and Address(
                    address_from_public_key(public_key)) == tx.sender:
                self.deferred_admissions += 1
                return
        elif verdict:
            return
        raise InvalidSignatureError(
            f"transaction {tx.hash_hex} is not properly signed")

    # -- settle / pipeline ---------------------------------------------------

    def settle(self, pending: Sequence[Transaction]) -> List[Transaction]:
        """Resolve every deferred verdict; return the transactions to evict.

        Joins the previous block's pipelined kick, sends whatever is still
        cold (new arrivals since the kick) through the pool, and hands back
        the transactions whose signatures failed.  A pool failure is
        counted and leaves memos cold; the closing ``verify_signature`` pass
        then verifies those inline, so the returned eviction set is always
        authoritative and the caller has touched no shared state yet.
        """
        try:
            self._join_inflight()
            handle = self._pool.batch_prewarm_async(pending)
            handle.join()
            self.verify_jobs_offloaded += handle.jobs_submitted
        except Exception as exc:
            self._count_fallback(exc)
        invalid = [tx for tx in pending if not tx.verify_signature()]
        self.deferred_rejections += len(invalid)
        self.blocks_settled += 1
        return invalid

    def kick(self, transactions: Sequence[Transaction]) -> bool:
        """Start verifying next block's candidates while this one executes.

        Called right after selection with the pending transactions that
        were *not* selected.  No-ops (returns ``False``) when there are no
        workers to overlap with or nothing is cold.
        """
        if self.verify_workers == 0:
            return False
        try:
            handle = self._pool.batch_prewarm_async(transactions)
        except Exception as exc:
            self._count_fallback(exc)
            return False
        if not handle.jobs_submitted:
            return False
        self._inflight = handle
        self._kick_started = time.monotonic()
        self.pipeline_kicks += 1
        return True

    def _join_inflight(self) -> None:
        if self._inflight is None:
            return
        handle, self._inflight = self._inflight, None
        wait_started = time.monotonic()
        self.overlap_seconds += max(0.0, wait_started - self._kick_started)
        handle.join()
        self.join_wait_seconds += time.monotonic() - wait_started
        self.verify_jobs_offloaded += handle.jobs_submitted
        self.pipeline_joins += 1

    def _count_fallback(self, exc: Exception) -> None:
        reason = type(exc).__name__
        self.pipeline_fallbacks += 1
        self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + 1

    def close(self) -> None:
        """Tear down the verify pool (abandoning any in-flight kick)."""
        self._inflight = None
        self._pool.close()

    # -- reporting -----------------------------------------------------------

    @property
    def stats(self) -> Dict[str, Any]:
        """Counters for RPC / obs export (see ``parallel_status``)."""
        return {
            "verify_workers": self.verify_workers,
            "blocks_settled": self.blocks_settled,
            "deferred_admissions": self.deferred_admissions,
            "deferred_rejections": self.deferred_rejections,
            "pipeline_kicks": self.pipeline_kicks,
            "pipeline_joins": self.pipeline_joins,
            "pipeline_fallbacks": self.pipeline_fallbacks,
            "fallback_reasons": dict(sorted(self.fallback_reasons.items())),
            "verify_jobs_offloaded": self.verify_jobs_offloaded,
            "overlap_seconds": round(self.overlap_seconds, 6),
            "join_wait_seconds": round(self.join_wait_seconds, 6),
        }
