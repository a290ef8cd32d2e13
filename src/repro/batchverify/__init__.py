"""Deferred signature verification: the block producer's settle engine.

:class:`BatchVerifyEngine` (:mod:`repro.batchverify.engine`) moves Schnorr
verification from submission to the top of block production -- structural
checks at admission, one settle per block with mempool eviction -- on the
signature worker pool (:mod:`repro.parallel.verify`).  It adds no
arithmetic of its own: every verdict is the default
``repro.chain.keys.verify_signature``'s.

Enabled per-chain via ``Blockchain.enable_batch_verify`` (CLI:
``--batch-verify``); with it off, none of this imports and the default path
is untouched.
"""

from repro.batchverify.engine import BatchVerifyEngine

__all__ = ["BatchVerifyEngine"]
