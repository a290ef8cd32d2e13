"""Tests for repro.ml.layers and repro.ml.mlp."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.ml.layers import DenseLayer
from repro.ml.losses import cross_entropy_with_softmax
from repro.ml.mlp import MLP


class TestDenseLayer:
    def test_forward_shape(self):
        layer = DenseLayer(4, 3, rng=np.random.default_rng(0))
        out = layer.forward(np.ones((5, 4)))
        assert out.shape == (5, 3)

    def test_forward_rejects_wrong_width(self):
        layer = DenseLayer(4, 3)
        with pytest.raises(ShapeError):
            layer.forward(np.ones((5, 6)))

    def test_backward_before_forward_rejected(self):
        with pytest.raises(ShapeError):
            DenseLayer(2, 2).backward(np.ones((1, 2)))

    def test_backward_gradient_shapes(self):
        layer = DenseLayer(4, 3, rng=np.random.default_rng(0))
        layer.forward(np.ones((5, 4)))
        grad_in = layer.backward(np.ones((5, 3)))
        assert grad_in.shape == (5, 4)
        assert layer.grad_weights.shape == (4, 3)
        assert layer.grad_biases.shape == (3,)

    def test_gradient_check(self):
        rng = np.random.default_rng(2)
        layer = DenseLayer(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        # Loss = sum of outputs; dL/dW = x^T @ ones.
        layer.forward(x)
        layer.backward(np.ones((4, 2)))
        assert np.allclose(layer.grad_weights, x.T @ np.ones((4, 2)))

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ShapeError):
            DenseLayer(0, 5)


class TestMLP:
    def test_paper_architecture_parameter_count(self):
        model = MLP((784, 100, 10), seed=0)
        count = sum(layer.weights.size + layer.biases.size for layer in model.layers)
        assert count == 784 * 100 + 100 + 100 * 10 + 10 == 79_510

    def test_forward_output_shape(self):
        model = MLP((784, 100, 10), seed=0)
        assert model.forward(np.zeros((7, 784))).shape == (7, 10)

    def test_single_sample_is_promoted_to_batch(self):
        model = MLP((4, 3, 2), seed=0)
        assert model.forward(np.zeros(4)).shape == (1, 2)

    def test_predict_and_predict_proba(self):
        model = MLP((4, 3, 2), seed=0)
        x = np.random.default_rng(0).normal(size=(6, 4))
        probabilities = model.predict_proba(x)
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        assert np.array_equal(model.predict(x), np.argmax(probabilities, axis=1))

    def test_seeded_construction_is_deterministic(self):
        a = MLP((10, 5, 2), seed=42)
        b = MLP((10, 5, 2), seed=42)
        assert np.allclose(a.layers[0].weights, b.layers[0].weights)

    def test_different_seeds_differ(self):
        a = MLP((10, 5, 2), seed=1)
        b = MLP((10, 5, 2), seed=2)
        assert not np.allclose(a.layers[0].weights, b.layers[0].weights)

    def test_from_parameters_infers_architecture(self):
        model = MLP((6, 4, 3), seed=0)
        rebuilt = MLP.from_parameters(model.get_parameters())
        assert rebuilt.layer_sizes == (6, 4, 3)
        x = np.random.default_rng(0).normal(size=(2, 6))
        assert np.allclose(rebuilt.forward(x), model.forward(x))

    @pytest.fixture()
    def no_random_draws(self, monkeypatch):
        """Building a model from known parameters must not draw (and then
        overwrite) He-uniform weights: ``make_rng`` raises while this is on."""
        from repro.ml import layers, mlp

        def refuse(*_args, **_kwargs):
            raise AssertionError("a random generator was built for known parameters")

        monkeypatch.setattr(layers, "make_rng", refuse)
        monkeypatch.setattr(mlp, "make_rng", refuse)

    def test_building_from_known_parameters_draws_no_random_number(self, no_random_draws):
        from repro.ml.serialization import serialize_model
        from tests.oracles import deserialize_model

        with pytest.raises(AssertionError):
            MLP((6, 4, 3), seed=0)  # the fixture bites where weights are drawn
        layers = [DenseLayer.from_parameters({"weights": np.full((6, 4), 0.5), "biases": np.ones(4)}),
                  DenseLayer.from_parameters({"weights": np.full((4, 3), -2.0), "biases": np.zeros(3)})]
        parameters = [layer.get_parameters() for layer in layers]
        rebuilt = MLP.from_parameters(parameters)
        clone = MLP.from_parameters(parameters)
        restored = deserialize_model(serialize_model(rebuilt))
        # Built from float64 parameters, a model stays float64; one read back
        # from its payload holds the payload's float32.
        for model, dtype in ((rebuilt, np.float64), (clone, np.float64),
                             (restored, np.float32)):
            assert model.layer_sizes == (6, 4, 3)
            for layer, params in zip(model.layers, parameters):
                assert np.array_equal(layer.weights, params["weights"])
                assert np.array_equal(layer.biases, params["biases"])
                assert layer.weights.dtype == layer.biases.dtype == dtype
                assert not np.shares_memory(layer.weights, params["weights"])

    def test_a_model_built_from_parameters_trains(self, no_random_draws):
        model = MLP.from_parameters([
            {"weights": np.linspace(-1, 1, 20).reshape(5, 4), "biases": np.zeros(4)},
            {"weights": np.linspace(1, -1, 12).reshape(4, 3), "biases": np.zeros(3)},
        ])
        x = np.random.default_rng(0).normal(size=(6, 5))
        _, grad = cross_entropy_with_softmax(model.forward(x), np.array([0, 1, 2, 0, 1, 2]))
        model.backward(grad)
        assert all(np.any(layer.grad_weights != 0) for layer in model.layers)

    @pytest.mark.parametrize("parameters", [
        [],
        # layer 0 has 4 outputs, layer 1 takes 5 inputs
        [{"weights": np.ones((6, 4)), "biases": np.ones(4)},
         {"weights": np.ones((5, 3)), "biases": np.ones(3)}],
        # biases do not match the layer's width
        [{"weights": np.ones((6, 4)), "biases": np.ones(3)}],
        [{"weights": np.ones((6, 4)), "biases": np.ones((4, 1))}],
        # weights are not a matrix, or an empty one
        [{"weights": np.ones(6), "biases": np.ones(6)}],
        [{"weights": np.ones((0, 4)), "biases": np.ones(4)}],
    ], ids=["empty", "chain", "bias-width", "bias-rank", "weight-rank", "zero-width"])
    def test_from_parameters_rejects_mismatched_shapes(self, parameters):
        with pytest.raises(ShapeError):
            MLP.from_parameters(parameters)

    def test_first_layer_input_gradient_is_not_computed(self):
        model = MLP((5, 4, 3), seed=1)
        products = []
        first, second = model.layers

        def counted(layer):
            backward = layer.backward

            def wrapper(grad):
                products.append(layer)
                return backward(grad)

            return wrapper

        first.backward, second.backward = counted(first), counted(second)
        x = np.random.default_rng(0).normal(size=(6, 5))
        _, grad = cross_entropy_with_softmax(model.forward(x), np.array([0, 1, 2, 0, 1, 2]))
        model.backward(grad)
        assert products == [second]
        assert np.allclose(first.grad_weights, x.T @ (
            (grad @ second.weights.T) * (first.forward(x) > 0)))

    def test_too_few_layer_sizes_rejected(self):
        with pytest.raises(ShapeError):
            MLP((10,))

    def test_backward_before_forward_rejected(self):
        with pytest.raises(ShapeError):
            MLP((4, 3, 2)).backward(np.ones((1, 2)))

    def test_full_backward_gradient_check(self):
        rng = np.random.default_rng(3)
        # A float64 model: central differences at this epsilon need its
        # precision (a float32 loss moves in steps of ~1e-7).
        model = MLP.from_parameters([
            {key: values.astype(np.float64) for key, values in layer.items()}
            for layer in MLP((5, 4, 3), seed=1).get_parameters()])
        x = rng.normal(size=(6, 5))
        labels = rng.integers(0, 3, size=6)

        def loss_value() -> float:
            loss, _ = cross_entropy_with_softmax(model.forward(x), labels)
            return loss

        _, grad = cross_entropy_with_softmax(model.forward(x), labels)
        model.backward(grad)
        analytic = model.layers[0].grad_weights.copy()

        epsilon = 1e-6
        weights = model.layers[0].weights
        for i, j in [(0, 0), (2, 1), (4, 3)]:
            original = weights[i, j]
            weights[i, j] = original + epsilon
            up = loss_value()
            weights[i, j] = original - epsilon
            down = loss_value()
            weights[i, j] = original
            numeric = (up - down) / (2 * epsilon)
            assert np.isclose(analytic[i, j], numeric, atol=1e-5)

    def test_training_reduces_loss_on_separable_data(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(-2, 0.5, size=(50, 4)), rng.normal(2, 0.5, size=(50, 4))])
        y = np.array([0] * 50 + [1] * 50)
        model = MLP((4, 8, 2), seed=0)
        from repro.ml.optimizers import Adam

        optimizer = Adam(learning_rate=0.01)
        first_loss = None
        for _ in range(50):
            logits = model.forward(x)
            loss, grad = cross_entropy_with_softmax(logits, y)
            if first_loss is None:
                first_loss = loss
            model.backward(grad)
            optimizer.step(model.layers)
        assert loss < first_loss * 0.5
