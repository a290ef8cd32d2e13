"""Figure 4 -- single local model quality vs the aggregated model.

Paper setup: ten model owners, non-IID MNIST (PFNM partitioning), a
(784, 100, 10) MLP trained with batch size 64, learning rate 0.001 and 10
local epochs; PFNM one-shot aggregation.  Paper result: the aggregated model
reaches 93.87 % test accuracy, surpassing the least effective local model by
58.87 percentage points.

Reproduced here on the synthetic MNIST stand-in: the bench prints each
owner's local test accuracy and the aggregated accuracy of the paper-scale
marketplace run (the system's own numbers), and asserts the paper's
qualitative claims (aggregate beats every local model; the margin over the
worst local model is tens of percentage points).  The aggregate is the PFNM
aggregation itself, rerun over the updates the buyer retrieved.
"""

from repro.fl.oneshot import make_aggregator

from .conftest import print_table


def test_fig4_local_vs_aggregate(bench_updates, paper_report):
    """Regenerate Fig. 4's bars from the PFNM aggregation of the run's updates."""
    updates = bench_updates["updates"]
    test = bench_updates["test"]
    local_accuracies = bench_updates["local_accuracies"]
    aggregator = make_aggregator("pfnm")

    result = aggregator.aggregate(updates)
    aggregate_accuracy = result.evaluate(test)

    rows = [
        (f"model {index}", f"{accuracy:.4f}")
        for index, accuracy in enumerate(local_accuracies)
    ]
    rows.append(("aggregated (PFNM)", f"{aggregate_accuracy:.4f}"))
    print_table("Fig. 4 - local model quality vs aggregated model", rows,
                ["model", "test accuracy"])
    margin = aggregate_accuracy - min(local_accuracies)
    print(f"aggregate - worst local = {margin:.4f} "
          f"(paper: 0.5887); aggregate = {aggregate_accuracy:.4f} (paper: 0.9387)")

    # Shape assertions (the reproduction target).
    assert aggregate_accuracy > max(local_accuracies), "aggregate must beat every local model"
    assert margin > 0.30, "aggregate must beat the worst local model by a wide margin"
    assert min(local_accuracies) < 0.6, "non-IID local models must be individually weak"
    # The bars are the marketplace's own: its updates aggregate to its accuracy.
    assert aggregate_accuracy == paper_report.aggregate_accuracy
