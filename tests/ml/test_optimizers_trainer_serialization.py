"""Tests for repro.ml.optimizers, repro.ml.trainer, repro.ml.dataloader and
repro.ml.serialization."""

import numpy as np
import pytest

from repro.errors import SerializationError, ShapeError
from repro.ml import (
    MLP,
    Adam,
    Trainer,
    TrainingConfig,
    batch_iterator,
    model_payload_size,
    serialize_model,
)
from repro.ml.losses import cross_entropy_with_softmax
from repro.ml.trainer import evaluate_model
from tests.oracles import deserialize_model


def tiny_problem(n=120, seed=0):
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.normal(-1.5, 0.4, size=(n // 2, 6)), rng.normal(1.5, 0.4, size=(n // 2, 6))])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return x, y


class TestOptimizers:
    def _loss_after(self, optimizer, steps=40):
        x, y = tiny_problem()
        model = MLP((6, 8, 2), seed=0)
        loss = None
        for _ in range(steps):
            logits = model.forward(x)
            loss, grad = cross_entropy_with_softmax(logits, y)
            model.backward(grad)
            optimizer.step(model.layers)
        return loss

    def test_adam_reduces_loss(self):
        assert self._loss_after(Adam(learning_rate=0.01)) < 0.3

    def test_adam_allocates_moment_buffers_once_per_layer(self, monkeypatch):
        from repro.ml import optimizers

        allocations = []

        class CountingNumpy:
            """numpy as the optimizers module sees it, with the two
            allocators the optimizer uses counted."""

            def __getattr__(self, name):
                return getattr(np, name)

            def zeros_like(self, array):
                allocations.append(("moment", array.shape))
                return np.zeros_like(array)

            def empty_like(self, array):
                allocations.append(("scratch", array.shape))
                return np.empty_like(array)

        monkeypatch.setattr(optimizers, "np", CountingNumpy())
        self._loss_after(Adam(learning_rate=0.01), steps=5)
        # Two moments and two scratch buffers x (weights, biases) for each of
        # the two layers, on the first step only.
        shapes = [(6, 8), (8,), (8, 2), (2,)]
        assert sorted(allocations) == sorted(
            [(kind, shape) for kind in ("moment", "scratch") for shape in shapes] * 2)

    def test_adam_step_allocates_nothing_after_the_first(self):
        import tracemalloc

        x, y = tiny_problem()
        model = MLP((6, 64, 2), seed=0)
        optimizer = Adam(learning_rate=0.01)
        _, grad = cross_entropy_with_softmax(model.forward(x), y)
        model.backward(grad)
        optimizer.step(model.layers)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            optimizer.step(model.layers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One temporary the size of the smaller weight matrix would be 1 kB.
        assert peak - before < 64 * 2 * 8

    def test_adam_matches_the_textbook_update_bit_for_bit(self):
        x, y = tiny_problem()
        model = MLP((6, 8, 2), seed=0)
        reference = [
            {"weights": layer.weights.copy(), "biases": layer.biases.copy()}
            for layer in model.layers
        ]
        first = [{key: np.zeros_like(value) for key, value in layer.items()} for layer in reference]
        second = [{key: np.zeros_like(value) for key, value in layer.items()} for layer in reference]
        optimizer = Adam(learning_rate=0.01)
        for step in range(1, 8):
            logits = model.forward(x)
            _, grad = cross_entropy_with_softmax(logits, y)
            model.backward(grad)
            gradients = [layer.get_gradients() for layer in model.layers]
            optimizer.step(model.layers)
            for params, m, v, grads in zip(reference, first, second, gradients):
                for key in ("weights", "biases"):
                    m[key] = 0.9 * m[key] + (1 - 0.9) * grads[key]
                    v[key] = 0.999 * v[key] + (1 - 0.999) * grads[key] ** 2
                    m_hat = m[key] / (1 - 0.9**step)
                    v_hat = v[key] / (1 - 0.999**step)
                    params[key] -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        for layer, params in zip(model.layers, reference):
            assert np.array_equal(layer.weights, params["weights"])
            assert np.array_equal(layer.biases, params["biases"])

    def test_invalid_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            Adam(learning_rate=-1)


class TestBatchIterator:
    def test_batches_cover_all_samples(self):
        x = np.arange(20).reshape(10, 2)
        y = np.arange(10)
        seen = sum(len(by) for _, by in batch_iterator(x, y, batch_size=3))
        assert seen == 10

    def test_shuffle_is_seeded(self):
        x = np.arange(20).reshape(10, 2)
        y = np.arange(10)
        a = [by.tolist() for _, by in batch_iterator(x, y, 4, rng=1)]
        b = [by.tolist() for _, by in batch_iterator(x, y, 4, rng=1)]
        assert a == b

    def test_every_pass_is_a_shuffled_permutation(self):
        x = np.arange(20).reshape(10, 2)
        y = np.arange(10)
        order = np.concatenate([by for _, by in batch_iterator(x, y, 4, rng=0)]).tolist()
        assert sorted(order) == list(range(10))
        assert order != list(range(10))

    def test_features_and_labels_stay_aligned(self):
        x = np.arange(10).reshape(10, 1) * 2
        y = np.arange(10)
        for bx, by in batch_iterator(x, y, 3, rng=0):
            assert np.array_equal(bx.ravel(), by * 2)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ShapeError):
            list(batch_iterator(np.ones((5, 2)), np.ones(4), 2))

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError):
            list(batch_iterator(np.ones((5, 2)), np.ones(5), 0))


class TestTrainer:
    def test_defaults_match_paper_settings(self):
        config = TrainingConfig()
        assert config.batch_size == 64
        assert config.learning_rate == 0.001
        assert config.epochs == 10

    def test_training_history_and_improvement(self):
        x, y = tiny_problem(n=200)
        model = MLP((6, 10, 2), seed=0)
        trainer = Trainer(model, TrainingConfig(epochs=5, batch_size=16, learning_rate=0.01, seed=0))
        history = trainer.train(x, y)
        assert len(history.epochs) == 5
        assert history.epochs[-1].loss < history.epochs[0].loss
        assert history.final_accuracy > 0.9

    def test_final_accuracy_is_the_trained_models_accuracy_on_the_training_set(self):
        x, y = tiny_problem(n=200)
        model = MLP((6, 10, 2), seed=0)
        trainer = Trainer(model, TrainingConfig(epochs=3, batch_size=16, learning_rate=0.01, seed=0))
        history = trainer.train(x, y)
        assert history.final_accuracy == evaluate_model(model, x, y).accuracy
        assert history.final_loss == history.epochs[-1].loss

    def test_weights_equal_a_reference_loop_with_every_gradient_and_fresh_temporaries(self):
        """The trainer skips the first layer's input gradient and updates in
        place; neither may move a bit of any weight."""
        from repro.ml.activations import relu, relu_grad
        from repro.utils.rng import make_rng

        x, y = tiny_problem(n=150)
        config = TrainingConfig(epochs=3, batch_size=16, learning_rate=0.01, seed=4)
        model = MLP((6, 9, 5, 2), seed=2)
        weights = [layer.weights.copy() for layer in model.layers]
        biases = [layer.biases.copy() for layer in model.layers]
        Trainer(model, config).train(x, y)

        params = [p for pair in zip(weights, biases) for p in pair]
        first = [np.zeros_like(p) for p in params]
        second = [np.zeros_like(p) for p in params]
        rng = make_rng(config.seed, "trainer-shuffle")
        step = 0
        for _ in range(config.epochs):
            for batch_x, batch_y in batch_iterator(x, y, config.batch_size, rng=rng):
                # In the model's dtype, as its first layer takes the batch.
                inputs, pre_activations = [batch_x.astype(weights[0].dtype)], []
                for index, (w, b) in enumerate(zip(weights, biases)):
                    pre_activations.append(inputs[-1] @ w + b)
                    if index < len(weights) - 1:
                        inputs.append(relu(pre_activations[-1]))
                _, grad = cross_entropy_with_softmax(pre_activations[-1], batch_y)
                grads = [None] * len(params)
                for index in range(len(weights) - 1, -1, -1):
                    grads[2 * index] = inputs[index].T @ grad
                    grads[2 * index + 1] = grad.sum(axis=0)
                    grad = grad @ weights[index].T  # computed for layer 0 too
                    if index > 0:
                        grad = grad * relu_grad(pre_activations[index - 1])
                step += 1
                for i, (param, g) in enumerate(zip(params, grads)):
                    first[i] = 0.9 * first[i] + (1 - 0.9) * g
                    second[i] = 0.999 * second[i] + (1 - 0.999) * g**2
                    m_hat = first[i] / (1 - 0.9**step)
                    v_hat = second[i] / (1 - 0.999**step)
                    param -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert step > 20
        for layer, w, b in zip(model.layers, weights, biases):
            assert np.array_equal(layer.weights, w)
            assert np.array_equal(layer.biases, b)

    def test_evaluate(self):
        x, y = tiny_problem(n=100)
        model = MLP((6, 10, 2), seed=0)
        trainer = Trainer(model, TrainingConfig(epochs=3, batch_size=16, learning_rate=0.01, seed=0))
        trainer.train(x, y)
        result = evaluate_model(model, x, y)
        assert result.num_samples == 100
        assert 0.0 <= result.accuracy <= 1.0

    def test_training_is_reproducible_with_seed(self):
        x, y = tiny_problem(n=80)
        results = []
        for _ in range(2):
            model = MLP((6, 8, 2), seed=3)
            Trainer(model, TrainingConfig(epochs=2, batch_size=16, seed=3)).train(x, y)
            results.append(model.layers[0].weights.copy())
        assert np.allclose(results[0], results[1])


class TestSerialization:
    def test_roundtrip_preserves_predictions(self):
        model = MLP((20, 8, 4), seed=1)
        payload = serialize_model(model)
        restored = deserialize_model(payload)
        x = np.random.default_rng(0).normal(size=(5, 20))
        assert np.array_equal(restored.predict(x), model.predict(x))

    def test_paper_model_payload_is_about_317_kb(self):
        model = MLP((784, 100, 10), seed=0)
        payload = serialize_model(model)
        assert abs(len(payload) - 317 * 1024) < 8 * 1024
        assert model_payload_size((784, 100, 10)) == 79_510 * 4

    def test_bad_magic_rejected(self):
        with pytest.raises(SerializationError):
            deserialize_model(b"garbage" * 10)

    def test_truncated_payload_rejected(self):
        payload = serialize_model(MLP((10, 5, 2), seed=0))
        with pytest.raises(SerializationError):
            deserialize_model(payload[:-10])

    def test_corrupted_header_rejected(self):
        payload = bytearray(serialize_model(MLP((10, 5, 2), seed=0)))
        payload[20] ^= 0xFF
        with pytest.raises(SerializationError):
            deserialize_model(bytes(payload))

    def test_evaluate_model_helper(self):
        x, y = tiny_problem(n=60)
        model = MLP((6, 4, 2), seed=0)
        result = evaluate_model(model, x, y)
        assert 0.0 <= result.accuracy <= 1.0
        assert result.num_samples == 60
