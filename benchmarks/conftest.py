"""Shared fixtures for the benchmark harness.

Every figure and ablation reads one full marketplace run at paper scale (ten
owners, (784, 100, 10) MLP, batch 64, lr 0.001, 10 local epochs, 0.01 ETH
budget, PFNM aggregation), produced once per session:

* ``paper_report`` -- that run's report.  Figures 4-7 and Table 1 are all
  read off it.
* ``bench_updates`` -- the same run's ten model updates as the buyer
  retrieved them from IPFS, its local accuracies and the test set, reused
  by Figs. 4 and 6 and the aggregator and incentive ablations.

Every module prints the rows/series it regenerates and asserts their shape,
so ``pytest -s benchmarks`` prints the paper's evaluation tables on stdout.
The paper modules time nothing: ``bench/run.py`` times the stack, and
``test_bench_analytics.py`` keeps its own scan-vs-replica ratio.
"""

from __future__ import annotations

import pytest

from repro.system import paper_config, run_marketplace
from repro.system.orchestrator import build_environment

@pytest.fixture(scope="session")
def paper_run():
    """One full OFL-W3 marketplace run at paper scale, seed 7: (environment, report)."""
    environment = build_environment(paper_config(seed=7))
    return environment, run_marketplace(environment=environment)


@pytest.fixture(scope="session")
def paper_report(paper_run):
    """The paper-scale run's report."""
    return paper_run[1]


@pytest.fixture(scope="session")
def bench_updates(paper_run):
    """The paper-scale run's ten retrieved updates, accuracies and test set."""
    environment, report = paper_run
    task = environment.buyer.backend.tasks[report.workflow_result.task_address]
    return {
        "updates": task.updates,
        "local_accuracies": report.local_accuracies,
        "test": environment.test_dataset,
    }


def print_table(title: str, rows, columns) -> None:
    """Render a small fixed-width table to stdout for the bench logs."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(column)), max((len(str(row[i])) for row in rows), default=0))
        for i, column in enumerate(columns)
    ]
    header = "  ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
