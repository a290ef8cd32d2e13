"""Shared fixtures for the benchmark harness.

Every figure and ablation reads one full marketplace run at paper scale (ten
owners, (784, 100, 10) MLP, batch 64, lr 0.001, 10 local epochs, 0.01 ETH
budget, PFNM aggregation), produced once per session:

* ``paper_report`` -- that run's report.  Figures 4-7 and Table 1 are all
  read off it.
* ``bench_updates`` -- the same run's ten model updates as the buyer
  retrieved them from IPFS, its local accuracies, the test set and the
  environment, reused by the aggregator and incentive ablations.

Every benchmark prints the rows/series it regenerates, so running
``pytest benchmarks/ --benchmark-only -s`` reproduces the paper's evaluation
tables on stdout while pytest-benchmark records the timing of the key
computational step of each experiment.
"""

from __future__ import annotations

import time

import pytest

from repro.system import paper_config, run_marketplace
from repro.system.orchestrator import build_environment

BENCH_SEED = 7


def bench_config(**overrides):
    """The paper-scale configuration used across the benchmark suite."""
    return paper_config(seed=BENCH_SEED, **overrides)


@pytest.fixture(scope="session")
def paper_run():
    """One full OFL-W3 marketplace run at paper scale: (environment, report)."""
    environment = build_environment(bench_config())
    return environment, run_marketplace(environment=environment)


@pytest.fixture(scope="session")
def paper_report(paper_run):
    """The paper-scale run's report."""
    return paper_run[1]


@pytest.fixture(scope="session")
def bench_updates(paper_run):
    """The paper-scale run's ten retrieved updates, accuracies and datasets."""
    environment, report = paper_run
    task = environment.buyer.backend.tasks[report.workflow_result.task_address]
    return {
        "config": environment.config,
        "environment": environment,
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


def mean_seconds(benchmark, target, *, rounds: int, iterations: int = 1, args=()) -> float:
    """Run ``target`` through ``benchmark.pedantic``; its mean seconds a call.

    Under ``--benchmark-disable`` pytest-benchmark calls ``target`` once and
    leaves ``benchmark.stats`` at ``None``, so the rounds are then timed here
    with ``time.perf_counter``.
    """
    benchmark.pedantic(target, args=args, rounds=rounds, iterations=iterations)
    if benchmark.stats is not None:
        return benchmark.stats.stats.mean
    calls = rounds * iterations
    started = time.perf_counter()
    for _ in range(calls):
        target(*args)
    return (time.perf_counter() - started) / calls
