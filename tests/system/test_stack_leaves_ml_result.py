"""The Web3 stack carries one-shot FL without changing its result.

Each owner trains in memory; the buyer gets its model only through IPFS, the
contract's CID list and the backend.  For a skewed, the quick config's and a
near-uniform Dirichlet partition, the updates the buyer retrieved must equal the owners' own, byte for byte and in
owner order, and aggregating and leaving one out over the owners' updates
directly, with no chain, IPFS or backend in between, must reproduce the
report's accuracies exactly.
"""

from __future__ import annotations

import pytest

from repro.fl.oneshot import make_aggregator
from repro.incentives import leave_one_out
from repro.system import quick_config, run_marketplace
from repro.system.orchestrator import build_environment


@pytest.mark.parametrize("alpha", [pytest.param(0.5, id="dirichlet"),
                                   pytest.param(0.1, id="dirichlet-skewed"),
                                   pytest.param(100.0, id="dirichlet-near-uniform")])
def test_stack_leaves_the_ml_result_bit_identical(alpha):
    environment = build_environment(quick_config(seed=1, partition_alpha=alpha))
    report = run_marketplace(environment=environment)
    retrieved = environment.buyer.backend.tasks[report.workflow_result.task_address].updates
    local = [owner.dapp.session.local_result.update for owner in environment.owners]

    assert [update.client_id for update in retrieved] == report.owner_addresses
    assert len(local) == len(retrieved)
    for own, got in zip(local, retrieved):
        assert own.num_samples == got.num_samples
        assert len(own.parameters) == len(got.parameters)
        for own_layer, got_layer in zip(own.parameters, got.parameters):
            assert own_layer.keys() == got_layer.keys()
            for name, array in own_layer.items():
                assert array.dtype == got_layer[name].dtype
                assert array.shape == got_layer[name].shape
                assert array.tobytes() == got_layer[name].tobytes()

    aggregator = make_aggregator(environment.config.aggregator)
    test = environment.test_dataset

    def value_fn(subset):
        return aggregator.aggregate([local[i] for i in subset]).evaluate(test)

    loo = leave_one_out(len(local), value_fn)
    assert loo.full_value == report.aggregate_accuracy
    assert [loo.drop_values[i] for i in range(len(local))] == report.drop_accuracies
