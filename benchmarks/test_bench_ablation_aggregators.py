"""Ablation -- one-shot aggregators vs multi-round FedAvg vs local models.

Not a figure in the paper, but the design choice behind it: the paper adopts
PFNM because naive parameter averaging breaks under permutation ambiguity,
while multi-round FedAvg would require ~100x more on-chain interactions.
This bench quantifies the accuracy / on-chain-interaction trade-off across:

* best and worst local models (no aggregation),
* naive weighted parameter mean (one shot),
* PFNM neuron matching (one shot, the paper's choice),
* probability-averaging ensemble (one shot, but the buyer must keep all
  models),
* FedAvg for a small number of rounds (each round = one more full set of
  on-chain CID submissions).
"""

import pytest

from repro.fl import FedAvgConfig, FedAvgServer, FLClient
from repro.fl.oneshot import make_aggregator
from repro.ml import TrainingConfig

from .conftest import print_table

# Multi-round FedAvg retrains every owner per round; can exceed the
# CI-wide --timeout=120 budget on a cold fixture cache.
pytestmark = pytest.mark.timeout(600)


def test_ablation_oneshot_vs_multiround(benchmark, bench_updates, paper_report):
    """Compare aggregation strategies on accuracy and on-chain interaction count."""
    updates = bench_updates["updates"]
    test = bench_updates["test"]
    config = bench_updates["config"]
    local_accuracies = bench_updates["local_accuracies"]
    num_owners = len(updates)

    rows = []
    rows.append(("worst local model", f"{min(local_accuracies):.4f}", 1, "-"))
    rows.append(("best local model", f"{max(local_accuracies):.4f}", 1, "-"))

    mean_result = make_aggregator("mean").aggregate(updates)
    rows.append(("one-shot mean", f"{mean_result.evaluate(test):.4f}", num_owners, "single model"))

    pfnm_result = benchmark.pedantic(
        lambda: make_aggregator("pfnm").aggregate(updates), rounds=1, iterations=1, warmup_rounds=0
    )
    pfnm_accuracy = pfnm_result.evaluate(test)
    rows.append(("one-shot PFNM (paper)", f"{pfnm_accuracy:.4f}", num_owners,
                 f"width {pfnm_result.details['global_hidden_width']}"))

    ensemble_result = make_aggregator("ensemble").aggregate(updates)
    rows.append(("one-shot ensemble", f"{ensemble_result.evaluate(test):.4f}", num_owners,
                 f"{num_owners} models kept"))

    # Multi-round FedAvg: every round is another set of on-chain CID submissions.
    fedavg_rounds = 5
    clients = [
        FLClient(
            f"fedavg-{i}",
            dataset,
            config=TrainingConfig(batch_size=config.batch_size,
                                  learning_rate=config.learning_rate,
                                  epochs=1, seed=i),
            seed=i,
        )
        for i, dataset in enumerate(owner.dataset for owner in bench_updates["environment"].owners)
    ]
    server = FedAvgServer(
        clients,
        FedAvgConfig(num_rounds=fedavg_rounds, local_epochs=1,
                     batch_size=config.batch_size, learning_rate=config.learning_rate, seed=0),
    )
    history = server.run(test)
    rows.append((f"FedAvg ({fedavg_rounds} rounds)", f"{history[-1].test_accuracy:.4f}",
                 num_owners * fedavg_rounds, "multi-round"))
    rows.append(("FedAvg (100 rounds, extrapolated cost)", "-", num_owners * 100, "paper's comparison point"))

    print_table(
        "Ablation - aggregation strategy vs accuracy and on-chain uploads",
        rows,
        ["strategy", "test accuracy", "on-chain model uploads", "notes"],
    )

    # Shape assertions.
    assert pfnm_accuracy > max(local_accuracies), "PFNM must beat every local model"
    assert pfnm_accuracy > mean_result.evaluate(test), "PFNM must beat naive averaging"
    assert server.total_client_uploads == num_owners * fedavg_rounds
    # One-shot keeps the on-chain interaction count at one per owner.
    assert num_owners * fedavg_rounds >= 5 * num_owners
    # The PFNM row is the marketplace's own aggregate.
    assert pfnm_accuracy == paper_report.aggregate_accuracy
