"""Tests for the one-shot aggregators (mean, PFNM, ensemble, FedOV)."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.errors import AggregationError
from repro.fl.fedavg import weighted_average_parameters
from repro.fl.model_update import ModelUpdate
from repro.fl.oneshot import make_aggregator
from repro.fl.oneshot.ensemble import EnsembleAggregator, EnsemblePredictor
from repro.fl.oneshot.fedov import FedOVAggregator, generate_outliers
from repro.fl.oneshot.mean import MeanAggregator
from repro.fl.oneshot.pfnm import PFNMAggregator, PFNMConfig, _fold_in_client
from repro.ml import MLP
from repro.system import paper_config, quick_config
from repro.system.orchestrator import build_environment, run_marketplace


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

    def test_unweighted_option(self, trained_updates):
        weighted = MeanAggregator(weighted=True).aggregate(trained_updates)
        unweighted = MeanAggregator(weighted=False).aggregate(trained_updates)
        assert not np.allclose(
            weighted.predictor.layers[0].weights, unweighted.predictor.layers[0].weights
        )

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

    def test_aggregation_beats_worst_local_model(self, trained_updates, tiny_split):
        _, test = tiny_split
        local_accuracies = [
            (u.to_model().predict(test.features) == test.labels).mean() for u in trained_updates
        ]
        result = PFNMAggregator().aggregate(trained_updates)
        assert result.evaluate(test) > min(local_accuracies)

    def test_requires_hidden_layer(self):
        shallow = MLP((10, 3), seed=0)  # no hidden layer
        updates = [ModelUpdate.from_model(shallow, num_samples=1) for _ in range(2)]
        with pytest.raises(AggregationError):
            PFNMAggregator().aggregate(updates)

    def test_deep_mlp_supported(self):
        updates = [
            ModelUpdate.from_model(MLP((16, 8, 6, 4), seed=i), num_samples=5, client_id=f"c{i}")
            for i in range(3)
        ]
        result = PFNMAggregator().aggregate(updates)
        assert result.predictor.layer_sizes[0] == 16
        assert result.predictor.layer_sizes[-1] == 4
        assert len(result.predictor.layer_sizes) == 4

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

    Taken on the commit *before* the cost matrix moved to the GEMM form (PR 13),
    so they say that change -- and any later one -- left every assignment and
    every averaged atom where it was.  They cover local training too (Adam).
    """

    @pytest.mark.parametrize(
        "config, width, expected",
        [
            (quick_config(seed=7), 400, "8e5c7e1b3a5d6e84c01642fe3707203d"),
            (quick_config(seed=8), 400, "da9a877d44abb3db122851ead278a229"),
            (quick_config(seed=9), 400, "8a067267ee726ddfeb2be14ebbf41be2"),
            (paper_config(seed=7), 800, "30fcd7e107603e2a7f4fd4dc863ec51c"),
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
            neurons, _, _ = _fold_in_client(client, atoms, counts, PFNMConfig(), 800)
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
            neurons, counts_out, _ = _fold_in_client(client, atoms, counts, PFNMConfig(), 800)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert neurons.shape == (450, 795)
        assert np.count_nonzero(counts_out == 2.0) == 50
        assert peak < 16 * 2**20


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

    def test_distillation_produces_single_mlp(self, trained_updates, tiny_split):
        train, test = tiny_split
        aggregator = EnsembleAggregator(distill_dataset=train, distill_epochs=2, seed=0)
        result = aggregator.aggregate(trained_updates)
        assert isinstance(result.predictor, MLP)
        assert result.details["distilled"] is True
        assert 0.0 <= result.evaluate(test) <= 1.0

    def test_empty_ensemble_rejected(self):
        with pytest.raises(AggregationError):
            EnsemblePredictor(members=[]).predict(np.ones((1, 4)))


class TestFedOV:
    def test_open_set_models_have_extra_class(self, tiny_client_datasets, trained_updates):
        aggregator = FedOVAggregator(tiny_client_datasets, epochs=1, hidden_width=16, seed=0)
        result = aggregator.aggregate(trained_updates)
        for member in result.predictor.members:
            assert member.layer_sizes[-1] == 11  # 10 classes + unknown

    def test_predictions_are_valid_classes(self, tiny_client_datasets, trained_updates, tiny_split):
        _, test = tiny_split
        aggregator = FedOVAggregator(tiny_client_datasets, epochs=1, hidden_width=16, seed=0)
        result = aggregator.aggregate(trained_updates)
        predictions = result.predict(test.features[:20])
        assert predictions.min() >= 0
        assert predictions.max() < 10

    def test_outlier_generation_shapes(self):
        rng = np.random.default_rng(0)
        features = rng.random((40, 784))
        outliers = generate_outliers(features, rng, fraction=0.5)
        assert outliers.shape == (20, 784)

    def test_requires_client_datasets(self):
        with pytest.raises(AggregationError):
            FedOVAggregator([], epochs=1)
