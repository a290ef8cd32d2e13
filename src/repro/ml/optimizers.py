"""Gradient-descent optimizers."""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.ml.layers import DenseLayer


#: Adam's decay rates for the first and second moment estimates, and the
#: term that keeps its denominator off zero (Kingma & Ba's defaults).
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Optimizer:
    """Base class: applies per-layer parameter updates from stored gradients."""

    def step(self, layers: List[DenseLayer]) -> None:
        """Update every layer's parameters in place from its gradients."""
        raise NotImplementedError


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015).

    The paper trains local models with a learning rate of 0.001, the Adam
    default, so Adam is the trainer's optimizer.
    """

    def __init__(self, learning_rate: float = 0.001) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate
        self._step_count = 0
        #: Per layer: (first moment, second moment, two scratch buffers) for
        #: the weights and for the biases, allocated on the first step.
        self._state: Dict[int, List[Tuple[np.ndarray, ...]]] = {}

    def step(self, layers: List[DenseLayer]) -> None:
        """Apply one Adam update to every layer: the textbook update, operation
        for operation, written into two scratch buffers instead of temporaries."""
        self._step_count += 1
        for index, layer in enumerate(layers):
            params = (layer.weights, layer.biases)
            if index not in self._state:
                self._state[index] = [
                    (np.zeros_like(p), np.zeros_like(p), np.empty_like(p), np.empty_like(p))
                    for p in params
                ]
            grads = layer.get_gradients()
            for (m, v, update, scratch), grad, param in zip(
                self._state[index], (grads["weights"], grads["biases"]), params
            ):
                # m = beta1 * m + (1 - beta1) * grad
                m *= BETA1
                np.multiply(grad, 1 - BETA1, out=scratch)
                m += scratch
                # v = beta2 * v + (1 - beta2) * grad**2
                v *= BETA2
                np.square(grad, out=scratch)
                scratch *= 1 - BETA2
                v += scratch
                # param -= learning_rate * m_hat / (sqrt(v_hat) + epsilon)
                np.divide(m, 1 - BETA1**self._step_count, out=update)
                update *= self.learning_rate
                np.divide(v, 1 - BETA2**self._step_count, out=scratch)
                np.sqrt(scratch, out=scratch)
                scratch += EPSILON
                update /= scratch
                param -= update
