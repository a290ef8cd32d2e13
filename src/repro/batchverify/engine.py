"""Chain-side engine: deferred admission and the per-block settle.

The default ingest path verifies every signature at submission time, inside
the caller's thread, before the transaction may enter the mempool.  With
this engine enabled the chain defers that work: submission performs only
the *structural* checks (a signature is present, its public key is in range
and hashes to the claimed sender -- anything else raises the exact
``InvalidSignatureError`` the default path would), and the Ed25519 check of
everything admitted settles at the top of block production.

Settling happens *before* mempool selection and evicts every transaction
whose deferred verdict came back ``False``.  Selection therefore sees
exactly the set of valid transactions the default path would have admitted,
in the same arrival order -- which is what makes these blocks
fingerprint-identical to serial ones.

There is one signature arithmetic: every verdict, in a worker process or
inline, is ``repro.chain.keys.verify_signature``'s.  What the engine adds
is *when* and *where* it runs: once a block, on the signature worker pool.
The pool has one fallback: if it fails -- a dead worker, a failed fork --
the engine counts the failure by its exception class and the settle
verifies inline, before a single shared-state write, so a crashing worker
degrades throughput, never correctness.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.chain.account import Address
from repro.chain.keys import acceptable_public_key, address_from_public_key
from repro.chain.transaction import Transaction
from repro.errors import InvalidSignatureError
from repro.parallel.verify import SignatureVerifyPool, _memoized_verdict


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
        "pipeline_fallbacks": 0,
        "fallback_reasons": {},
        "verify_jobs_offloaded": 0,
    }


class BatchVerifyEngine:
    """Owns the deferred-verification lifecycle for one chain.

    ``verify_workers`` is the size of the signature-verify pool.  ``0``
    settles inline on the coordinator thread.
    """

    def __init__(self, verify_workers: int = 0) -> None:
        if verify_workers < 0:
            raise ValueError(
                f"verify_workers must be >= 0, got {verify_workers}")
        self.verify_workers = verify_workers
        self._pool = SignatureVerifyPool(verify_workers)
        self.blocks_settled = 0
        self.deferred_admissions = 0
        self.deferred_rejections = 0
        #: Pool failures answered by verifying inline, in total and by the
        #: class name of the exception that caused each.
        self.pipeline_fallbacks = 0
        self.fallback_reasons: Dict[str, int] = {}
        self.verify_jobs_offloaded = 0

    # -- admission -----------------------------------------------------------

    def admission_check(self, tx: Transaction) -> None:
        """Structural checks at submission; curve arithmetic is deferred.

        Raises the scalar path's exact ``InvalidSignatureError`` for
        everything decidable without curve arithmetic: a missing signature,
        a public key ``acceptable_public_key`` refuses, or a key that does
        not hash to the claimed sender (which is how a wrong-key forgery
        fails the scalar address recovery).  A transaction whose verify
        memo is already warm is judged by it -- deferral never un-rejects a
        known-bad signature.
        """
        verdict = _memoized_verdict(tx)
        if verdict is None:
            public_key = tx.signature.public_key
            if acceptable_public_key(public_key) and Address(
                    address_from_public_key(public_key)) == tx.sender:
                self.deferred_admissions += 1
                return
        elif verdict:
            return
        raise InvalidSignatureError(
            f"transaction {tx.hash_hex} is not properly signed")

    # -- settle --------------------------------------------------------------

    def settle(self, pending: Sequence[Transaction]) -> List[Transaction]:
        """Resolve every deferred verdict; return the transactions to evict.

        Sends whatever is still cold through the pool and hands back the
        transactions whose signatures failed.  A pool failure is
        counted and leaves memos cold; the closing ``verify_signature`` pass
        then verifies those inline, so the returned eviction set is always
        authoritative and the caller has touched no shared state yet.
        """
        try:
            handle = self._pool.batch_prewarm_async(pending)
            handle.join()
            self.verify_jobs_offloaded += handle.jobs_submitted
        except Exception as exc:
            self._count_fallback(exc)
        invalid = [tx for tx in pending if not tx.verify_signature()]
        self.deferred_rejections += len(invalid)
        self.blocks_settled += 1
        return invalid

    def _count_fallback(self, exc: Exception) -> None:
        reason = type(exc).__name__
        self.pipeline_fallbacks += 1
        self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + 1

    def close(self) -> None:
        """Tear down the verify pool."""
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
            "pipeline_fallbacks": self.pipeline_fallbacks,
            "fallback_reasons": dict(sorted(self.fallback_reasons.items())),
            "verify_jobs_offloaded": self.verify_jobs_offloaded,
        }
