"""Scenario benchmarks -- the marketplace beyond the paper's happy path.

The paper's evaluation is one task with honest owners on an ideal LAN.
These benches run the ``repro.simnet`` discrete-event scenarios at a small
scale and report what that setting hides:

* throughput of concurrent tasks sharing one chain node and mempool
  (tasks/hour, mempool high-water mark) against sequential execution;
* aggregate accuracy as the adversary fraction grows (label-flipping
  poisoners), the robustness curve one-shot aggregation lacks.
"""

from repro.simnet import run_scenario
from repro.system import quick_config

from .conftest import print_table

SIM_SEED = 11


def small_config(**overrides):
    """A deliberately tiny per-task marketplace so benches stay fast."""
    base = dict(num_owners=3, num_samples=600, local_epochs=1, seed=SIM_SEED)
    base.update(overrides)
    return quick_config(**base)


def test_bench_concurrent_throughput():
    """Five concurrent tasks on one chain: throughput + mempool pressure."""
    report = run_scenario("concurrent", config=small_config(),
                          num_tasks=5, task_stagger_seconds=30.0)

    rows = [
        (task.label, task.status, f"{task.duration_seconds:8.0f}",
         f"{task.num_submissions}/{task.num_owners}")
        for task in report.tasks
    ]
    print_table("concurrent scenario - five tasks, one shared mempool",
                rows, ["task", "status", "sim seconds", "submitted"])
    print(f"throughput: {report.throughput_tasks_per_hour:.2f} tasks/hour, "
          f"mempool max depth {report.mempool_max_depth}, "
          f"{report.blocks_produced} blocks")

    assert report.tasks_completed == 5
    # Concurrency must actually overlap tasks: the makespan has to be far
    # below the sum of the individual task durations.
    total_duration = sum(task.duration_seconds for task in report.tasks)
    assert report.makespan_seconds < 0.8 * total_duration
    # The shared mempool must have queued transactions from distinct tasks.
    assert report.mempool_max_depth >= 2


def test_bench_accuracy_vs_adversary_fraction():
    """The robustness curve: aggregate accuracy as poisoners take over."""
    fractions = (0.0, 0.34, 0.67)
    config = small_config(num_owners=3, num_samples=900)

    curve = []
    for fraction in fractions:
        report = run_scenario(
            "adversarial", config=config,
            behavior_fractions=({"poisoner": fraction} if fraction else {}))
        task = report.tasks[0]
        curve.append((task.adversary_fraction, task.aggregate_accuracy))
    print_table(
        "aggregate accuracy vs adversary fraction (label-flipping poisoners)",
        [(f"{fraction:.0%}", f"{accuracy:.4f}") for fraction, accuracy in curve],
        ["adversaries", "aggregate accuracy"],
    )
    # More poisoners must not help: the all-honest end of the curve beats
    # the majority-poisoned end.
    assert curve[0][1] > curve[-1][1]
