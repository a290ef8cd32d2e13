"""The saved-report pins: what a marketplace run reports is frozen.

``repro run --save`` writes canonical JSON (sorted keys, fixed indent), so
equal reports are equal bytes.  The sha256 of the report saved after
``run_marketplace(quick_config(seed=s))`` must equal a recorded constant for
each seed below: the accuracies, leave-one-out drops, contributions,
payments, gas and simulated timings of every one of them.

This is the contract a numerical change to training, aggregation or
evaluation is held to: payload bytes and CIDs may move with it, the report
may not.  (CI pins the paper preset's seed-7 report the same way; it takes
several seconds, too slow for this suite.)  When a *deliberate* change to
the report lands, re-record the constants with:

    PYTHONPATH=src python -c "from tests.system.test_report_pin import \
report_digest; print({s: report_digest(s) for s in (1, 2, 3, 7, 9)})"
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import pytest

from repro.system import quick_config, run_marketplace
from repro.system.artifacts import save_report

#: sha256 of each quick-preset seed's saved report, re-recorded when each
#: owner's initial weights stopped depending on its wallet address, and again
#: when accounts moved to Ed25519 (every address and hash) and the config
#: lost three unread fields.
QUICK_REPORT_SHA256 = {
    1: "dfb08ca2eab0d60abf383c0dcef1ad36a0c3844599b6ff6b32d7f6044b40ce53",
    2: "28f45c3bd0e233395f41325bd52a39c5bc4a6384790371e937af8d13bed4de06",
    3: "0b1e3323e56d4ed905c97976f828ced9bd59e9a92b68c81a0205ff8341d50a3a",
    7: "b62fb276024caaf2a425ed7f3829c2ff6c6e54226302e5f5c5edb17189b16f3c",
    9: "01ba985895274734363b81a7a1f43706ead621732fcd61957ce9e46d92bc367d",
}


def report_digest(seed: int) -> str:
    """sha256 of the report ``repro run --seed SEED --save`` writes."""
    with tempfile.TemporaryDirectory() as scratch:
        path = save_report(run_marketplace(quick_config(seed=seed)),
                           Path(scratch) / "report.json")
        return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", sorted(QUICK_REPORT_SHA256))
def test_saved_quick_report_is_pinned(seed):
    assert report_digest(seed) == QUICK_REPORT_SHA256[seed]
