"""repro.parallel -- the out-of-process signature verify pool.

:class:`~repro.parallel.verify.SignatureVerifyPool` runs the default
``verify_signature`` in worker processes for ``repro.batchverify``, which
is its only caller.  See ``docs/parallel.md``.
"""

from repro.parallel.verify import SignatureVerifyPool

__all__ = ["SignatureVerifyPool"]
