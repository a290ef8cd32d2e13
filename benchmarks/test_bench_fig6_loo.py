"""Figure 6 -- leave-one-out test accuracy.

The buyer re-aggregates the models with each owner excluded in turn; the
accuracy of the "drop owner i" aggregate measures how dispensable owner i is
(high drop accuracy = low contribution; the paper finds model 7 contributes
least).  The bench prints the drop-accuracy series, checks it against the
full aggregate and with the marketplace's own drop accuracies.
"""

import numpy as np
import pytest

from repro.fl.oneshot import make_aggregator
from repro.incentives import leave_one_out

from .conftest import print_table

# One full PFNM aggregation per excluded owner; over the CI-wide
# --timeout=120 budget on a cold fixture cache.
pytestmark = pytest.mark.timeout(600)


def test_fig6_leave_one_out_accuracies(bench_updates, paper_report):
    """Regenerate Fig. 6's per-owner drop accuracies."""
    updates = bench_updates["updates"]
    test = bench_updates["test"]
    aggregator = make_aggregator("pfnm")

    def value_fn(subset):
        if not subset:
            return 0.0
        return aggregator.aggregate([updates[i] for i in subset]).evaluate(test)

    report = leave_one_out(len(updates), value_fn)

    rows = [
        (f"drop model {owner}", f"{report.drop_values[owner]:.4f}", f"{report.scores[owner]:+.4f}")
        for owner in range(len(updates))
    ]
    rows.append(("full aggregate", f"{report.full_value:.4f}", ""))
    print_table("Fig. 6 - test accuracy with each model dropped (LOO)",
                rows, ["configuration", "test accuracy", "marginal contribution"])
    least_useful = report.least_useful()
    print(f"least useful owner: model {least_useful} "
          f"(paper: model 7 was least useful in their run)")

    drop_values = np.array([report.drop_values[i] for i in range(len(updates))])
    # Dropping one of ten owners must not collapse the aggregate ...
    assert drop_values.min() > 0.3
    # ... and the drop accuracies must actually vary across owners (someone matters more).
    assert drop_values.max() - drop_values.min() > 0.005
    # The least-useful owner is the one whose removal leaves accuracy highest.
    assert report.drop_values[least_useful] == drop_values.max()
    # LOO used exactly n+1 distinct aggregations.
    assert report.num_evaluations == len(updates) + 1
    # These are the marketplace's own drop accuracies.
    assert drop_values.tolist() == paper_report.drop_accuracies
