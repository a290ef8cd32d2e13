"""Tests for the one-shot aggregators (mean, PFNM, ensemble)."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.errors import AggregationError
from repro.fl.model_update import ModelUpdate
from repro.fl.oneshot import make_aggregator
from repro.fl.oneshot.ensemble import EnsembleAggregator, EnsemblePredictor
from repro.fl.oneshot import pfnm
from repro.fl.oneshot.mean import MeanAggregator, weighted_average_parameters
from repro.fl.oneshot.pfnm import PFNMAggregator, PFNMConfig
from repro.ml import MLP
from repro.system import paper_config, quick_config
from repro.system.orchestrator import build_environment, run_marketplace
from tests.property.test_property_pfnm import fold_in_client


class TestMakeAggregator:
    def test_known_names(self):
        assert isinstance(make_aggregator("pfnm"), PFNMAggregator)
        assert isinstance(make_aggregator("mean"), MeanAggregator)
        assert isinstance(make_aggregator("ensemble"), EnsembleAggregator)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_aggregator("federated-magic")


class TestWeightedAverage:
    def test_two_identical_models_average_to_same(self):
        model = MLP((6, 4, 2), seed=0)
        updates = [ModelUpdate.from_model(model, num_samples=5) for _ in range(2)]
        averaged = weighted_average_parameters(updates)
        assert np.allclose(averaged[0]["weights"], model.get_parameters()[0]["weights"])

    def test_weighting_by_sample_count(self):
        heavy = MLP((4, 3, 2), seed=1)
        light = MLP((4, 3, 2), seed=2)
        updates = [
            ModelUpdate.from_model(heavy, num_samples=90),
            ModelUpdate.from_model(light, num_samples=10),
        ]
        averaged = weighted_average_parameters(updates)
        expected = 0.9 * heavy.get_parameters()[0]["weights"] + 0.1 * light.get_parameters()[0]["weights"]
        assert np.allclose(averaged[0]["weights"], expected)

    def test_empty_rejected(self):
        with pytest.raises(AggregationError):
            weighted_average_parameters([])


class TestMeanAggregator:
    def test_produces_single_model_with_local_architecture(self, trained_updates):
        result = MeanAggregator().aggregate(trained_updates)
        assert isinstance(result.predictor, MLP)
        assert result.predictor.layer_sizes == trained_updates[0].layer_sizes
        assert result.num_updates == len(trained_updates)

    def test_evaluate_returns_accuracy(self, trained_updates, tiny_split):
        _, test = tiny_split
        accuracy = MeanAggregator().aggregate(trained_updates).evaluate(test)
        assert 0.0 <= accuracy <= 1.0


class TestPFNM:
    def test_output_model_architecture(self, trained_updates):
        result = PFNMAggregator().aggregate(trained_updates)
        model = result.predictor
        # Input and output widths preserved; hidden width may grow.
        assert model.layer_sizes[0] == 784
        assert model.layer_sizes[-1] == 10
        assert model.layer_sizes[1] >= 100
        assert result.details["global_hidden_width"] == model.layer_sizes[1]

    def test_width_capped_by_factor(self, trained_updates):
        config = PFNMConfig(max_global_neurons_factor=1.5)
        result = PFNMAggregator(config).aggregate(trained_updates)
        assert result.details["global_hidden_width"] <= int(np.ceil(100 * 1.5))

    def test_single_update_recovers_member_behaviour(self, trained_updates, tiny_split):
        _, test = tiny_split
        single = trained_updates[0]
        result = PFNMAggregator().aggregate([single])
        member_accuracy = (
            (single.to_model().predict(test.features) == test.labels).mean()
        )
        assert abs(result.evaluate(test) - member_accuracy) < 0.05

    def test_identical_clients_match_instead_of_growing(self):
        model = MLP((12, 6, 3), seed=0)
        updates = [ModelUpdate.from_model(model, num_samples=10, client_id=f"c{i}") for i in range(4)]
        result = PFNMAggregator().aggregate(updates)
        # Identical neurons should be matched, keeping the global width small.
        assert result.details["global_hidden_width"] == 6
        x = np.random.default_rng(0).normal(size=(5, 12))
        assert np.array_equal(result.predictor.predict(x), model.predict(x))

    def test_aggregation_beats_worst_local_model(self, quick_marketplace_report):
        # At the quick preset's scale (four owners, 1 600 samples), not on
        # the three 150-sample shards above: there, two epochs leave every
        # model within a few test samples of the others, and the aggregate
        # beat the worst local model in only 7 of 12 initial-weight draws.
        report = quick_marketplace_report
        assert report.aggregate_algorithm == "pfnm"
        assert report.aggregate_accuracy > min(report.local_accuracies)

    def test_requires_hidden_layer(self):
        shallow = MLP((10, 3), seed=0)  # no hidden layer
        updates = [ModelUpdate.from_model(shallow, num_samples=1) for _ in range(2)]
        with pytest.raises(AggregationError):
            PFNMAggregator().aggregate(updates)

    def test_a_deeper_mlp_is_refused(self):
        updates = [
            ModelUpdate.from_model(MLP((16, 8, 6, 4), seed=i), num_samples=5, client_id=f"c{i}")
            for i in range(3)
        ]
        with pytest.raises(AggregationError, match="exactly one hidden layer"):
            PFNMAggregator().aggregate(updates)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PFNMConfig(sigma=0)
        with pytest.raises(ValueError):
            PFNMConfig(max_global_neurons_factor=0.5)

    def test_empty_updates_rejected(self):
        with pytest.raises(AggregationError):
            PFNMAggregator().aggregate([])


def parameters_md5(parameters) -> str:
    """md5 over every layer's shape and float64 bytes, weights then biases."""
    digest = hashlib.md5()
    for layer in parameters:
        for key in ("weights", "biases"):
            array = np.ascontiguousarray(layer[key], dtype=np.float64)
            digest.update(str(array.shape).encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


class TestPFNMPins:
    """The aggregated model of the presets, frozen byte for byte.

    First taken on the commit *before* the cost matrix moved to the GEMM
    form, so they said that change left every assignment and every averaged
    atom where it was; re-taken when the model moved to float32 (local
    training in float32 moves the clients, and the fused model is rounded to
    their dtype; the widths did not move), and again when each owner's
    initial weights stopped depending on its wallet address (the widths
    did not move).  They cover local training too (Adam).
    """

    @pytest.mark.parametrize(
        "config, width, expected",
        [
            (quick_config(seed=7), 400, "96562448ea17bf0ee6ae9777b868b915"),
            (quick_config(seed=8), 400, "9541e1eb44f592a6d743b2fa558116f9"),
            (quick_config(seed=9), 400, "b78bfe83f5e4f51cb9f6cfb640194bf6"),
            (paper_config(seed=7), 800, "bb15ce1c90da987e0e8e60025901b097"),
        ],
        ids=["quick-7", "quick-8", "quick-9", "paper-7"],
    )
    def test_aggregated_parameters_md5(self, config, width, expected):
        env = build_environment(config)
        report = run_marketplace(environment=env)
        aggregation = env.buyer.backend.tasks[report.workflow_result.task_address].aggregation
        assert aggregation.details["global_hidden_width"] == width
        assert parameters_md5(aggregation.predictor.get_parameters()) == expected


class TestPFNMMemory:
    def test_fold_never_builds_the_distance_tensor(self):
        # One fold of the paper's shapes: 100 client neurons of 784 + 1 + 10
        # numbers against 400 atoms.  The J x L x D difference tensor alone is
        # 254 MB; the buffers a fold really needs are about 7 MB.
        rng = np.random.default_rng(0)
        client = rng.normal(size=(100, 795))
        atoms = rng.normal(size=(400, 795))
        counts = np.ones(400)
        tracemalloc.start()
        try:
            neurons, _, _ = fold_in_client(client, atoms, counts, PFNMConfig(), 800)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert neurons.shape == (500, 795)
        assert peak < 16 * 2**20

    def test_fold_with_a_reduced_solve_stays_under_the_bound(self):
        # The same shapes with half the client neurons near-copies of atoms,
        # so the solver runs on the 50 rows an atom can win.
        rng = np.random.default_rng(0)
        atoms = rng.normal(size=(400, 795))
        client = rng.normal(size=(100, 795))
        client[:50] = atoms[::8] + rng.normal(size=(50, 795)) * 1e-3
        counts = np.ones(400)
        tracemalloc.start()
        try:
            neurons, counts_out, _ = fold_in_client(client, atoms, counts, PFNMConfig(), 800)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert neurons.shape == (450, 795)
        assert np.count_nonzero(counts_out == 2.0) == 50
        assert peak < 16 * 2**20


class TestPFNMWorkPerTask:
    """A task aggregates the grand coalition and then, for leave-one-out,
    every coalition short of one owner: each owner pair's products are
    computed once, and atoms that are still one owner's neuron are read, not
    copied."""

    @pytest.fixture(scope="class")
    def quick_updates(self):
        env = build_environment(quick_config(seed=7))
        report = run_marketplace(environment=env)
        return env.buyer.backend.tasks[report.workflow_result.task_address].updates

    def test_step_7_computes_each_owner_pair_block_once(self, monkeypatch):
        shapes = []
        inner_products = pfnm._inner_products

        def counting(left, right):
            shapes.append((left.shape[0], right.shape[0]))
            return inner_products(left, right)

        monkeypatch.setattr(pfnm, "_inner_products", counting)
        config = quick_config(seed=7)
        run_marketplace(environment=build_environment(config))
        # No atom merges below the width cap, so the only products are the
        # pairs' 100 x 100 blocks: none against an atom still an owner's neuron.
        pairs = config.num_owners * (config.num_owners - 1) // 2
        assert shapes == [(100, 100)] * pairs == [(100, 100)] * 6

    def test_a_call_with_a_new_owner_keeps_only_the_blocks_among_its_owners(
            self, quick_updates, monkeypatch):
        aggregator = PFNMAggregator()
        aggregator.aggregate(quick_updates)
        computed = []
        inner_products = pfnm._inner_products

        def counting(left, right):
            computed.append((left.shape[0], right.shape[0]))
            return inner_products(left, right)

        monkeypatch.setattr(pfnm, "_inner_products", counting)
        newcomer = ModelUpdate(quick_updates[0].parameters, num_samples=1, client_id="newcomer")
        coalition = quick_updates[1:] + [newcomer]
        got = aggregator.aggregate(coalition).predictor.get_parameters()
        # Three pairs among the owners kept are read back; the newcomer's three are new.
        assert computed == [(100, 100)] * 3
        held = aggregator._blocks._blocks
        assert len(held) == 6 and id(quick_updates[0]) not in {id_ for pair in held for id_ in pair}
        want = PFNMAggregator().aggregate(coalition).predictor.get_parameters()
        assert parameters_md5(got) == parameters_md5(want)

    def test_the_grand_quick_aggregate_stays_under_4_mb(self, quick_updates):
        # 6.7 MB when each fold copied every atom in float64 beside a
        # same-size temporary and the model went through a float64 matrix.
        tracemalloc.start()
        try:
            result = PFNMAggregator().aggregate(quick_updates)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.details["global_hidden_width"] == 400
        assert peak <= 4 * 2**20

    def test_the_fused_model_is_written_once_in_the_layout_it_had(self, quick_updates):
        hidden, output = PFNMAggregator().aggregate(quick_updates).predictor.layers
        assert hidden.weights.dtype == output.weights.dtype == np.float32
        assert hidden.weights.flags.f_contiguous and output.weights.flags.c_contiguous


class TestEnsemble:
    def test_ensemble_probabilities_normalized(self, trained_updates, tiny_split):
        _, test = tiny_split
        result = EnsembleAggregator().aggregate(trained_updates)
        probabilities = result.predictor.predict_proba(test.features[:10])
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_ensemble_beats_worst_member(self, trained_updates, tiny_split):
        _, test = tiny_split
        locals_acc = [
            (u.to_model().predict(test.features) == test.labels).mean() for u in trained_updates
        ]
        accuracy = EnsembleAggregator().aggregate(trained_updates).evaluate(test)
        assert accuracy >= min(locals_acc)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(AggregationError):
            EnsemblePredictor(members=[], weights=np.ones(0)).predict(np.ones((1, 4)))
