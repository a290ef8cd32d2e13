"""Dense (fully connected) layers with manual backpropagation."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import ShapeError
from repro.utils.rng import make_rng


class DenseLayer:
    """A fully connected layer ``y = x @ W + b``.

    Weights are stored with shape ``(in_features, out_features)`` and
    initialized with He-uniform scaling (appropriate for the ReLU activations
    used between layers).  A layer computes in its weights' dtype: float32
    when constructed (the precision its IPFS payload ships in), whatever
    floating dtype it was given when built :meth:`from_parameters`.
    """

    def __init__(self, in_features: int, out_features: int, rng=None) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ShapeError(
                f"layer dimensions must be positive, got ({in_features}, {out_features})"
            )
        limit = np.sqrt(6.0 / in_features)
        # Drawn in float64 and rounded once, so every seed's stream is the
        # one a float64 layer draws.
        weights = make_rng(rng).uniform(-limit, limit, size=(in_features, out_features))
        self._adopt(weights.astype(np.float32), np.zeros(out_features, dtype=np.float32))

    @classmethod
    def from_parameters(cls, parameters: Dict[str, np.ndarray]) -> "DenseLayer":
        """A layer holding copies of ``parameters``, in their floating dtype
        (at least float32); draws no random number."""
        weights = np.asarray(parameters["weights"])
        biases = np.asarray(parameters["biases"])
        dtype = np.result_type(weights, biases, np.float32)
        return cls.holding(np.array(weights, dtype=dtype), np.array(biases, dtype=dtype))

    @classmethod
    def holding(cls, weights: np.ndarray, biases: np.ndarray) -> "DenseLayer":
        """A layer over ``weights`` and ``biases`` themselves, not copies: for
        arrays their builder hands over (e.g. an aggregate written in place)."""
        if weights.ndim != 2 or 0 in weights.shape or biases.shape != weights.shape[1:]:
            raise ShapeError(
                f"parameter shape mismatch: weights {weights.shape} with biases {biases.shape}"
            )
        layer = cls.__new__(cls)
        layer._adopt(weights, biases)
        return layer

    def _adopt(self, weights: np.ndarray, biases: np.ndarray) -> None:
        self.in_features, self.out_features = weights.shape
        self.weights = weights
        self.biases = biases
        self._last_input: Optional[np.ndarray] = None
        # A layer that never trains (an aggregate, a copy, a downloaded
        # model) holds no gradients: the first backward sets them.
        self.grad_weights: Optional[np.ndarray] = None
        self.grad_biases: Optional[np.ndarray] = None

    # -- forward / backward ------------------------------------------------------

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Compute the affine transform, caching inputs for the backward pass."""
        inputs = np.asarray(inputs, dtype=self.weights.dtype)
        if inputs.ndim != 2 or inputs.shape[1] != self.in_features:
            raise ShapeError(
                f"expected input of shape (batch, {self.in_features}), got {inputs.shape}"
            )
        self._last_input = inputs
        return inputs @ self.weights + self.biases

    def accumulate_gradients(self, grad_output: np.ndarray) -> np.ndarray:
        """Store the parameter gradients; returns the validated ``grad_output``."""
        if self._last_input is None:
            raise ShapeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=self.weights.dtype)
        if grad_output.shape != (self._last_input.shape[0], self.out_features):
            raise ShapeError(
                f"expected grad of shape ({self._last_input.shape[0]}, {self.out_features}), "
                f"got {grad_output.shape}"
            )
        self.grad_weights = self._last_input.T @ grad_output
        self.grad_biases = grad_output.sum(axis=0)
        return grad_output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients and return the input gradient."""
        return self.accumulate_gradients(grad_output) @ self.weights.T

    # -- parameter access -----------------------------------------------------------

    def get_parameters(self) -> Dict[str, np.ndarray]:
        """Copies of the layer parameters."""
        return {"weights": self.weights.copy(), "biases": self.biases.copy()}

    def get_gradients(self) -> Dict[str, np.ndarray]:
        """The most recently computed gradients."""
        if self.grad_weights is None:
            raise ShapeError("backward called before forward")
        return {"weights": self.grad_weights, "biases": self.grad_biases}
