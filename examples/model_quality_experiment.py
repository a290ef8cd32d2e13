"""The Fig. 4 / Fig. 6 experiment as a standalone script.

Runs one marketplace task at the paper's setup -- synthetic MNIST-like data
split across ten owners with PFNM's heterogeneous (Dirichlet) partitioning,
each owner's (784, 100, 10) MLP trained locally (batch 64, lr 0.001, 10
epochs), PFNM aggregation and leave-one-out -- and prints, from that one run,

* each local model's test accuracy vs the aggregated accuracy (Fig. 4),
  beside the mean and ensemble baselines over the same retrieved updates, and
* the leave-one-out drop accuracies identifying the least useful owner
  (Fig. 6).

Run with::

    python examples/model_quality_experiment.py [--owners 10] [--epochs 10] [--samples 20000]
"""

from __future__ import annotations

import argparse

from repro.data import partition_summary
from repro.fl.oneshot import make_aggregator
from repro.system import paper_config, run_marketplace
from repro.system.orchestrator import build_environment


def parse_args() -> argparse.Namespace:
    """Command-line options (defaults follow the paper's setup)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--owners", type=int, default=10, help="number of model owners")
    parser.add_argument("--epochs", type=int, default=10, help="local training epochs")
    parser.add_argument("--samples", type=int, default=20_000, help="total dataset size")
    parser.add_argument("--alpha", type=float, default=0.35, help="Dirichlet concentration")
    parser.add_argument("--seed", type=int, default=7, help="global random seed")
    return parser.parse_args()


def main() -> None:
    """Run the model-quality experiment and print Fig. 4 / Fig. 6 data."""
    args = parse_args()
    environment = build_environment(paper_config(
        num_owners=args.owners, local_epochs=args.epochs, num_samples=args.samples,
        partition_alpha=args.alpha, seed=args.seed))
    summary = partition_summary([owner.dataset for owner in environment.owners])
    print(f"Partitioned {summary['total_samples']} samples across {args.owners} owners "
          f"(sizes {summary['min_size']}-{summary['max_size']}, "
          f"mean label entropy {summary['mean_label_entropy']:.2f} nats)\n")

    report = run_marketplace(environment=environment)
    for index, (owner, accuracy) in enumerate(zip(environment.owners, report.local_accuracies)):
        print(f"owner {index}: {len(owner.dataset):5d} samples, "
              f"local test accuracy {accuracy:.4f}")

    # Fig. 4: aggregate vs local models, for PFNM and the baselines, over the
    # updates the buyer retrieved from IPFS.
    updates = environment.buyer.backend.tasks[report.workflow_result.task_address].updates
    print("\nOne-shot aggregation (Fig. 4):")
    for name in ("pfnm", "mean", "ensemble"):
        accuracy = make_aggregator(name).aggregate(updates).evaluate(environment.test_dataset)
        marker = " <- paper's algorithm" if name == "pfnm" else ""
        print(f"  {name:<9} aggregate accuracy {accuracy:.4f}{marker}")
    print(f"  worst local model: {min(report.local_accuracies):.4f}   "
          f"best local model: {max(report.local_accuracies):.4f}")

    # Fig. 6: the run's own leave-one-out drop accuracies.
    print("\nLeave-one-out drop accuracies (Fig. 6):")
    for index, address in enumerate(report.owner_addresses):
        print(f"  drop owner {index}: accuracy {report.loo_drop_accuracies[address]:.4f} "
              f"(contribution {report.contributions[address]:+.4f})")
    print(f"least useful owner: {report.owner_addresses.index(report.least_useful_owner)}")


if __name__ == "__main__":
    main()
