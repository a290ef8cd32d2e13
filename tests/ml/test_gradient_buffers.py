"""Gradient buffers exist only after a backward.

Most models in a marketplace task never train: aggregates, PFNM's fold-in
models, copies and every model the buyer downloads.  Their layers hold no
gradient arrays; a layer gets them from its first backward.  Reading
gradients before that is an error, not a set of zeros an optimizer would
silently apply.
"""

import hashlib

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.ml import MLP, Adam, Trainer, TrainingConfig, serialize_model
from repro.ml.losses import cross_entropy_with_softmax
from tests.oracles import deserialize_model

SIZES = (12, 16, 3)


def problem():
    rng = np.random.default_rng(0)
    return rng.normal(size=(64, 12)), rng.integers(0, 3, size=64)


@pytest.mark.parametrize("build", [
    lambda: MLP(SIZES, seed=5),
    lambda: MLP.from_parameters(MLP(SIZES, seed=5).get_parameters()),
    lambda: deserialize_model(serialize_model(MLP(SIZES, seed=5))),
], ids=["constructed", "from_parameters", "deserialized"])
def test_a_model_that_never_trained_holds_no_gradients(build):
    model = build()
    for layer in model.layers:
        assert layer.grad_weights is None
        assert layer.grad_biases is None
        with pytest.raises(ShapeError, match="backward called before forward"):
            layer.get_gradients()


def test_an_optimizer_step_before_any_backward_is_refused():
    model = MLP(SIZES, seed=5)
    before = [layer.weights.copy() for layer in model.layers]
    with pytest.raises(ShapeError):
        Adam(learning_rate=0.01).step(model.layers)
    assert all(np.array_equal(layer.weights, weights)
               for layer, weights in zip(model.layers, before))


def test_a_model_rebuilt_from_a_trained_one_holds_no_gradients():
    x, y = problem()
    model = MLP(SIZES, seed=5)
    Trainer(model, TrainingConfig(epochs=1, batch_size=16, seed=3)).train(x, y)
    assert all(layer.grad_weights is not None for layer in model.layers)
    clone = MLP.from_parameters(model.get_parameters())
    assert all(layer.grad_weights is None for layer in clone.layers)


# sha256 of the gradients and parameters, first computed before gradients
# were allocated lazily (when every layer started with zeroed buffers), and
# re-taken when the model moved to float32 (these are float32 bytes now).
def test_gradients_and_steps_are_bit_identical():
    x, y = problem()
    model = MLP(SIZES, seed=5)
    optimizer = Adam(learning_rate=0.01)
    digest = hashlib.sha256()
    for _ in range(3):
        _, grad = cross_entropy_with_softmax(model.forward(x), y)
        model.backward(grad)
        for layer in model.layers:
            gradients = layer.get_gradients()
            digest.update(gradients["weights"].tobytes())
            digest.update(gradients["biases"].tobytes())
        optimizer.step(model.layers)
        for layer in model.layers:
            digest.update(layer.weights.tobytes())
            digest.update(layer.biases.tobytes())
    assert digest.hexdigest() == "b5d0234f28b291f5426ced367e1acda0c60f61abd8a8735d68c922566c64c631"


def test_a_trained_model_is_bit_identical():
    x, y = problem()
    model = MLP(SIZES, seed=5)
    Trainer(model, TrainingConfig(epochs=2, batch_size=16, seed=3)).train(x, y)
    digest = hashlib.sha256()
    for layer in model.layers:
        for values in (layer.weights, layer.biases, layer.grad_weights, layer.grad_biases):
            digest.update(values.tobytes())
    assert digest.hexdigest() == "5f673f14942d2de840fc50d55e3c10e37f40842ec617da1896875a9f4e22fcf4"
