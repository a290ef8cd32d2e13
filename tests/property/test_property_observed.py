"""Observation never changes the chain, and the trace has the same rows
whichever way signatures are verified.

The write path has one body; ``chain.obs`` is either a recording
``Observability`` or the no-op facade.  So a workload must fingerprint
identically observed and unobserved under every verify mode, and the rows
``repro obs top`` / ``repro obs trace`` report must not depend on the
unrelated ``batch_verify`` flag.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from ._workload import OPS, fingerprint, run_workload

#: Operation kinds that reach ``submit_transaction`` (forgeries included:
#: rejected at submit by default, admitted and evicted under deferral).
SUBMITTING = {"transfer", "upload", "view", "fail", "deploy", "forge"}

LIFECYCLE = ["tx.execute", "tx.mempool", "tx.receipt", "tx.submit"]


@pytest.mark.parametrize("batch_verify", [None, 0, 2])
@given(ops=OPS)
@settings(max_examples=5, deadline=None)
def test_observed_chain_matches_unobserved(batch_verify, ops):
    assert fingerprint(run_workload(ops, batch_verify, observed=True)) == \
        fingerprint(run_workload(ops, batch_verify))


@pytest.mark.parametrize("batch_verify", [None, 0])
@given(ops=OPS)
@settings(max_examples=10, deadline=None)
def test_trace_rows_do_not_depend_on_the_verify_mode(batch_verify, ops):
    chain = run_workload(ops, batch_verify, observed=True)
    obs = chain.obs
    submissions = 1 + sum(op[0] in SUBMITTING for op in ops)  # + the seed deploy
    assert obs.profiler.counts()["chain.verify"] == submissions
    assert obs.tracer.span_counts()["tx.submit"] == submissions
    assert chain._receipts
    for tx_hash in chain._receipts:
        assert sorted(span.name for span in
                      obs.tracer.spans_for(tx_hash)) == LIFECYCLE
