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
* FedAvg for 5 and for 100 rounds, priced and not trained: each round
  repeats every owner's IPFS upload and CID submission, so R rounds cost R
  times the paper run's per-owner CID-submission gas and upload seconds.
"""

from repro.fl.oneshot import make_aggregator

from .conftest import print_table


def test_ablation_oneshot_vs_multiround(bench_updates, paper_report):
    """Compare aggregation strategies on accuracy and on-chain interaction count."""
    updates = bench_updates["updates"]
    test = bench_updates["test"]
    local_accuracies = bench_updates["local_accuracies"]
    num_owners = len(updates)

    # One round's price per owner: the run's mean CID-submission gas and the
    # owner's mean seconds to upload the model to IPFS and submit its CID.
    cid = paper_report.gas_report.category("cid_submission")
    owner = paper_report.owner_time_breakdown()
    upload_seconds = owner.phases["send_cid"] + owner.phases["model_upload_ipfs"]

    def priced(rounds):
        return (num_owners * rounds, f"{rounds * cid.mean_gas:,.0f}",
                f"{rounds * upload_seconds:,.1f}")

    rows = []
    rows.append(("worst local model", f"{min(local_accuracies):.4f}", 1, "-", "-", "-"))
    rows.append(("best local model", f"{max(local_accuracies):.4f}", 1, "-", "-", "-"))

    mean_result = make_aggregator("mean").aggregate(updates)
    rows.append(("one-shot mean", f"{mean_result.evaluate(test):.4f}", *priced(1),
                 "single model"))

    pfnm_result = make_aggregator("pfnm").aggregate(updates)
    pfnm_accuracy = pfnm_result.evaluate(test)
    rows.append(("one-shot PFNM (paper)", f"{pfnm_accuracy:.4f}", *priced(1),
                 f"width {pfnm_result.details['global_hidden_width']}"))

    ensemble_result = make_aggregator("ensemble").aggregate(updates)
    rows.append(("one-shot ensemble", f"{ensemble_result.evaluate(test):.4f}", *priced(1),
                 f"{num_owners} models kept"))

    for rounds in (5, 100):
        rows.append((f"FedAvg ({rounds} rounds)", "-", *priced(rounds), "priced, not trained"))

    print_table(
        "Ablation - aggregation strategy vs accuracy and on-chain uploads",
        rows,
        ["strategy", "test accuracy", "on-chain model uploads", "CID gas per owner",
         "upload s per owner", "notes"],
    )

    # Shape assertions.
    assert pfnm_accuracy > max(local_accuracies), "PFNM must beat every local model"
    assert pfnm_accuracy > mean_result.evaluate(test), "PFNM must beat naive averaging"
    # One-shot keeps the on-chain interaction count at one per owner.
    assert cid.count == num_owners
    # The PFNM row is the marketplace's own aggregate.
    assert pfnm_accuracy == paper_report.aggregate_accuracy
