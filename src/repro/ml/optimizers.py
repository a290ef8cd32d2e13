"""Gradient-descent optimizers."""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.ml.layers import DenseLayer


class Optimizer:
    """Base class: applies per-layer parameter updates from stored gradients."""

    def step(self, layers: List[DenseLayer]) -> None:
        """Update every layer's parameters in place from its gradients."""
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, learning_rate: float = 0.001, momentum: float = 0.0,
                 weight_decay: float = 0.0) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {learning_rate}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, Dict[str, np.ndarray]] = {}

    def step(self, layers: List[DenseLayer]) -> None:
        """Apply one SGD update to every layer."""
        for index, layer in enumerate(layers):
            grads = layer.get_gradients()
            if self.weight_decay:
                grads = {
                    "weights": grads["weights"] + self.weight_decay * layer.weights,
                    "biases": grads["biases"],
                }
            if self.momentum:
                state = self._velocity.setdefault(
                    index,
                    {"weights": np.zeros_like(layer.weights), "biases": np.zeros_like(layer.biases)},
                )
                state["weights"] = self.momentum * state["weights"] - self.learning_rate * grads["weights"]
                state["biases"] = self.momentum * state["biases"] - self.learning_rate * grads["biases"]
                layer.weights += state["weights"]
                layer.biases += state["biases"]
            else:
                layer.weights -= self.learning_rate * grads["weights"]
                layer.biases -= self.learning_rate * grads["biases"]


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015).

    The paper trains local models with a learning rate of 0.001, the Adam
    default, so Adam is the trainer's default optimizer.
    """

    def __init__(self, learning_rate: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
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
                m *= self.beta1
                np.multiply(grad, 1 - self.beta1, out=scratch)
                m += scratch
                # v = beta2 * v + (1 - beta2) * grad**2
                v *= self.beta2
                np.square(grad, out=scratch)
                scratch *= 1 - self.beta2
                v += scratch
                # param -= learning_rate * m_hat / (sqrt(v_hat) + epsilon)
                np.divide(m, 1 - self.beta1**self._step_count, out=update)
                update *= self.learning_rate
                np.divide(v, 1 - self.beta2**self._step_count, out=scratch)
                np.sqrt(scratch, out=scratch)
                scratch += self.epsilon
                update /= scratch
                param -= update
