"""Tests for repro.ml.activations, repro.ml.losses and repro.ml.metrics."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.ml.activations import relu, relu_grad, softmax
from repro.ml.losses import cross_entropy_loss, cross_entropy_with_softmax
from repro.ml.metrics import accuracy


class TestActivations:
    def test_relu_clamps_negatives(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert np.array_equal(relu(x), [0.0, 0.0, 3.0])

    def test_relu_grad_is_indicator(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert np.array_equal(relu_grad(x), [0.0, 0.0, 1.0])

    def test_softmax_rows_sum_to_one(self):
        logits = np.random.default_rng(0).normal(size=(5, 10))
        probabilities = softmax(logits)
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        assert np.all(probabilities >= 0)

    def test_softmax_invariant_to_constant_shift(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax(logits), softmax(logits + 100.0))

    def test_softmax_stable_for_large_logits(self):
        assert np.isfinite(softmax(np.array([[1e4, -1e4, 0.0]]))).all()


class TestLosses:
    def test_cross_entropy_perfect_prediction_is_near_zero(self):
        probabilities = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        assert cross_entropy_loss(probabilities, labels) < 1e-9

    def test_cross_entropy_uniform_prediction(self):
        probabilities = np.full((4, 10), 0.1)
        labels = np.arange(4)
        assert np.isclose(cross_entropy_loss(probabilities, labels), np.log(10), atol=1e-6)

    def test_cross_entropy_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cross_entropy_loss(np.ones((3, 2)), np.zeros(4, dtype=int))

    def test_softmax_cross_entropy_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 5))
        labels = np.array([0, 2, 4])
        _, grad = cross_entropy_with_softmax(logits, labels)
        epsilon = 1e-6
        numeric = np.zeros_like(logits)
        for i in range(logits.shape[0]):
            for j in range(logits.shape[1]):
                bumped = logits.copy()
                bumped[i, j] += epsilon
                up, _ = cross_entropy_with_softmax(bumped, labels)
                bumped[i, j] -= 2 * epsilon
                down, _ = cross_entropy_with_softmax(bumped, labels)
                numeric[i, j] = (up - down) / (2 * epsilon)
        assert np.allclose(grad, numeric, atol=1e-5)


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3, 4]), np.array([1, 2, 0, 4])) == 0.75

    def test_accuracy_empty_rejected(self):
        with pytest.raises(ShapeError):
            accuracy(np.array([]), np.array([]))

    def test_accuracy_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            accuracy(np.array([1, 2]), np.array([1]))
