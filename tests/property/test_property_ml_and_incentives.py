"""Property-based tests for ML serialization, aggregation and incentive invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.oneshot.mean import weighted_average_parameters
from repro.fl.model_update import ModelUpdate
from repro.incentives import allocate_budget, leave_one_out
from repro.ml import MLP, serialize_model
from repro.ml.activations import softmax
from tests.oracles import deserialize_model, shapley_exact

architectures = st.lists(st.integers(min_value=2, max_value=20), min_size=2, max_size=4)


class TestModelSerializationProperties:
    @given(architectures, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_preserves_predictions(self, layer_sizes, seed):
        model = MLP(layer_sizes, seed=seed)
        restored = deserialize_model(serialize_model(model))
        assert restored.layer_sizes == tuple(layer_sizes)
        x = np.random.default_rng(0).normal(size=(4, layer_sizes[0]))
        assert np.array_equal(restored.predict(x), model.predict(x))


class TestSoftmaxProperties:
    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=12
        )
    )
    def test_softmax_is_a_distribution(self, logits):
        probabilities = softmax(np.array([logits]))
        assert np.isclose(probabilities.sum(), 1.0)
        assert np.all(probabilities >= 0)


class TestAggregationProperties:
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_averaging_identical_models_is_identity(self, num_clients, seed):
        model = MLP((8, 5, 3), seed=seed)
        updates = [
            ModelUpdate.from_model(model, num_samples=np.random.default_rng(i).integers(1, 50))
            for i in range(num_clients)
        ]
        averaged = weighted_average_parameters(updates)
        for layer, params in zip(model.layers, averaged):
            assert np.allclose(layer.weights, params["weights"], atol=1e-6)

    @given(st.lists(st.integers(min_value=1, max_value=100), min_size=2, max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_average_is_within_convex_hull(self, sample_counts):
        models = [MLP((6, 4, 2), seed=i) for i in range(len(sample_counts))]
        updates = [
            ModelUpdate.from_model(model, num_samples=count)
            for model, count in zip(models, sample_counts)
        ]
        averaged = weighted_average_parameters(updates)
        stacked = np.stack([model.layers[0].weights for model in models])
        assert np.all(averaged[0]["weights"] <= stacked.max(axis=0) + 1e-9)
        assert np.all(averaged[0]["weights"] >= stacked.min(axis=0) - 1e-9)


class TestIncentiveProperties:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=2, max_size=6)
    )
    @settings(max_examples=30, deadline=None)
    def test_loo_of_additive_game_recovers_weights(self, weights):
        report = leave_one_out(len(weights), lambda s: sum(weights[i] for i in s))
        for owner, weight in enumerate(weights):
            assert abs(report.scores[owner] - weight) < 1e-9

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=2, max_size=5)
    )
    @settings(max_examples=20, deadline=None)
    def test_shapley_efficiency(self, weights):
        def value_fn(subset):
            return sum(weights[i] for i in subset) ** 1.5

        report = shapley_exact(len(weights), value_fn)
        assert abs(sum(report.scores.values()) - value_fn(tuple(range(len(weights))))) < 1e-9

    @given(
        st.lists(st.floats(min_value=-0.5, max_value=1.0, allow_nan=False), min_size=2, max_size=8),
        st.integers(min_value=10**15, max_value=10**17),
    )
    @settings(max_examples=40, deadline=None)
    def test_allocation_never_exceeds_budget(self, scores, budget):
        report = leave_one_out(len(scores), lambda s: sum(scores[i] for i in s))
        owners = [f"0x{i:040x}" for i in range(1, len(scores) + 1)]
        plan = allocate_budget(report, owners, budget)
        assert 0 <= plan.total_wei <= budget
        assert all(amount >= 0 for amount in plan.amounts_wei.values())
