"""Tests for repro.fl.model_update and repro.fl.client."""

import numpy as np
import pytest

from repro.errors import AggregationError
from repro.fl.client import FLClient
from repro.fl.model_update import ModelUpdate, check_compatible
from repro.ml import MLP, TrainingConfig
from repro.ml.trainer import evaluate_model


class TestModelUpdate:
    def test_from_model_and_back(self):
        model = MLP((20, 8, 4), seed=0)
        update = ModelUpdate.from_model(model, num_samples=50, client_id="owner-1")
        rebuilt = update.to_model()
        x = np.random.default_rng(0).normal(size=(3, 20))
        assert np.allclose(rebuilt.forward(x), model.forward(x))
        assert update.layer_sizes == (20, 8, 4)

    def test_payload_roundtrip(self):
        model = MLP((20, 8, 4), seed=1)
        update = ModelUpdate.from_model(model, num_samples=10, client_id="owner-2")
        payload = update.to_payload()
        restored = ModelUpdate.from_payload(payload, num_samples=10, client_id="owner-2")
        assert restored.layer_sizes == update.layer_sizes
        x = np.random.default_rng(1).normal(size=(2, 20))
        assert np.array_equal(restored.to_model().predict(x), model.predict(x))

    def test_non_positive_samples_rejected(self):
        model = MLP((4, 3, 2), seed=0)
        with pytest.raises(AggregationError):
            ModelUpdate.from_model(model, num_samples=0)

    def test_empty_parameters_rejected(self):
        with pytest.raises(AggregationError):
            ModelUpdate(parameters=[], num_samples=5)

    def test_check_compatible_accepts_same_architecture(self):
        updates = [
            ModelUpdate.from_model(MLP((6, 4, 2), seed=i), num_samples=1) for i in range(3)
        ]
        assert check_compatible(updates) == (6, 4, 2)

    def test_check_compatible_rejects_mixed_architectures(self):
        updates = [
            ModelUpdate.from_model(MLP((6, 4, 2), seed=0), num_samples=1),
            ModelUpdate.from_model(MLP((6, 5, 2), seed=0), num_samples=1),
        ]
        with pytest.raises(AggregationError):
            check_compatible(updates)

    def test_check_compatible_rejects_empty(self):
        with pytest.raises(AggregationError):
            check_compatible([])


class TestFLClient:
    def test_train_local_produces_update_with_metadata(self, tiny_client_datasets):
        dataset = tiny_client_datasets[0]
        client = FLClient("owner-0", dataset, config=TrainingConfig(epochs=1, seed=0), seed=0)
        result = client.train_local()
        assert result.update.client_id == "owner-0"
        assert result.update.num_samples == len(dataset)
        assert "label_counts" in result.update.metadata
        assert 0.0 <= result.train_accuracy <= 1.0

    def test_training_improves_over_initial_model(self, tiny_client_datasets, tiny_split):
        dataset = tiny_client_datasets[0]
        _, test = tiny_split
        untrained = MLP((784, 100, 10), seed=0)
        baseline = evaluate_model(untrained, dataset.features, dataset.labels).accuracy
        client = FLClient("owner-0", dataset, config=TrainingConfig(epochs=2, seed=0), seed=0)
        result = client.train_local()
        assert result.train_accuracy > baseline

    def test_different_clients_produce_different_models(self, tiny_client_datasets):
        results = []
        for index, dataset in enumerate(tiny_client_datasets[:2]):
            client = FLClient(
                f"owner-{index}", dataset, config=TrainingConfig(epochs=1, seed=index), seed=index
            )
            results.append(client.train_local().update.parameters[0]["weights"])
        assert not np.allclose(results[0], results[1])

    def test_the_initial_weights_follow_the_seed_not_the_client_id(self, tiny_client_datasets):
        # The client id is the owner's wallet address in the marketplace; the
        # weights must not move when the key scheme moves the address.
        dataset = tiny_client_datasets[0]

        def weights(client_id, seed):
            client = FLClient(client_id, dataset, config=TrainingConfig(epochs=1, seed=0),
                              seed=seed)
            return client.train_local().update.parameters[0]["weights"]

        assert np.array_equal(weights("0x" + "aa" * 20, 3), weights("0x" + "bb" * 20, 3))
        assert not np.array_equal(weights("0x" + "aa" * 20, 3), weights("0x" + "aa" * 20, 4))
