"""Deferred verification under the background load generator.

Skewed transfers, reads and ``ipfs_cat`` fetches from the generator a simnet
scenario attaches, on a stack that defers every signature check to block
production (``batch_verify=0``: settled inline on the coordinator).  The run
must complete with every transfer mined and nothing evicted, and submission
must stay one code path: the admission-time ``chain.verify`` phase is
recorded beside the settle-time ``chain.batch_verify`` phase, not instead
of it.
"""

import pytest

from repro.loadgen import LoadGenConfig, LoadGenerator
from repro.simnet.events import EventScheduler
from repro.simnet.runner import slot_producer
from repro.system.stack import build_stack


@pytest.fixture(scope="module")
def deferred_run():
    stack = build_stack(batch_verify=0, observability=True)
    scheduler = EventScheduler(stack.clock)
    generator = LoadGenerator(
        LoadGenConfig(clients=20, rate=8.0, duration_seconds=60.0, seed=7),
        stack=stack, scheduler=scheduler)
    generator.install()
    scheduler.spawn(slot_producer(stack, generator.busy), name="block-producer")
    scheduler.run()
    stack.close()
    return generator.finalize(), stack


def test_the_run_completes_and_reports(deferred_run):
    report, stack = deferred_run
    assert report.errors_total == 0
    assert report.tx_mined == report.tx_submitted > 0
    assert report.blocks_produced > 0
    stats = stack.node.chain.batchverify_stats()
    assert stats["verify_workers"] == 0
    assert stats["deferred_admissions"] == report.tx_submitted
    assert stats["blocks_settled"] > 0
    assert stats["deferred_rejections"] == 0
    assert stats["pipeline_fallbacks"] == 0


def test_admission_and_settle_phases_are_both_recorded(deferred_run):
    _, stack = deferred_run
    phase_calls = stack.obs.stats_dict()["phase_calls"]
    assert {"chain.verify", "chain.batch_verify"} <= set(phase_calls)
