"""The paper's model computes in float32, the precision its payloads ship in.

No option picks the dtype: it comes from the arrays.  The generator writes
one float32 array, a constructed MLP rounds its draws to float32, layers,
losses and optimizers compute in their weights' dtype, a decoded payload is
a float32 view of its bytes, and PFNM returns the fused model in its
updates' dtype.  A model built from float64 parameters stays float64.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml import MLP, Adam
from repro.ml.losses import cross_entropy_with_softmax
from repro.ml.serialization import deserialize_parameters, serialize_model
from repro.system import quick_config, run_marketplace
from repro.system.orchestrator import build_environment


@pytest.fixture(scope="module")
def task():
    """One quick task, with the dtypes of every optimizer step recorded."""
    steps = []
    original = Adam.step

    def recording(self, layers):
        original(self, layers)
        arrays = [array for layer in layers for array in
                  (layer.weights, layer.biases, layer.grad_weights, layer.grad_biases)]
        arrays += [array for state in self._state.values() for buffers in state
                   for array in buffers]
        steps.append((self, {array.dtype for array in arrays}))

    patch = pytest.MonkeyPatch()
    patch.setattr(Adam, "step", recording)
    try:
        env = build_environment(quick_config(seed=7))
        report = run_marketplace(environment=env)
    finally:
        patch.undo()
    yield env, env.buyer.backend.tasks[report.workflow_result.task_address], steps
    env.stack.close()


def test_the_data_is_one_float32_array_every_set_views(task):
    env, _, _ = task
    array = env.test_dataset.features.base
    assert array.dtype == np.float32
    assert array.shape == (quick_config().num_samples, 784)
    for dataset in [owner.dataset for owner in env.owners] + [env.train_dataset,
                                                              env.test_dataset]:
        assert dataset.features.dtype == np.float32
        assert dataset.features.base is array


def test_every_owner_trains_in_float32(task):
    env, _, steps = task
    assert len({id(optimizer) for optimizer, _ in steps}) == len(env.owners)
    assert all(dtypes == {np.dtype(np.float32)} for _, dtypes in steps)


def test_a_decoded_payload_is_a_float32_view_of_its_bytes(task):
    _, state, _ = task
    for update in state.updates:
        for layer in update.parameters:
            for values in layer.values():
                assert values.dtype == np.float32
                assert not values.flags.owndata and not values.flags.writeable
    payload = serialize_model(MLP(seed=1))
    buffer = np.frombuffer(payload, dtype=np.uint8)
    for layer in deserialize_parameters(payload):
        for values in layer.values():
            assert values.dtype == np.float32
            assert np.shares_memory(values, buffer)


def test_the_aggregate_is_float32(task):
    _, state, _ = task
    assert state.aggregation.algorithm == "pfnm"
    for layer in state.aggregation.predictor.layers:
        assert layer.weights.dtype == layer.biases.dtype == np.float32


def test_a_float64_model_stays_float64():
    rng = np.random.default_rng(0)
    model = MLP.from_parameters([
        {key: values.astype(np.float64) for key, values in layer.items()}
        for layer in MLP((12, 16, 3), seed=5).get_parameters()])
    logits = model.forward(rng.normal(size=(8, 12)).astype(np.float32))
    assert logits.dtype == np.float64
    _, grad = cross_entropy_with_softmax(logits, rng.integers(0, 3, size=8))
    assert grad.dtype == np.float64
    model.backward(grad)
    optimizer = Adam(learning_rate=0.01)
    optimizer.step(model.layers)
    for layer in model.layers:
        for values in (layer.weights, layer.biases, layer.grad_weights, layer.grad_biases):
            assert values.dtype == np.float64
    assert {buffer.dtype for state in optimizer._state.values() for buffers in state
            for buffer in buffers} == {np.dtype(np.float64)}
