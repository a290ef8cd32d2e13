"""The multi-layer perceptron used throughout the evaluation.

The paper's model is a three-layer MLP with layer sizes (784, 100, 10):
a 784-dimensional input, one hidden layer of 100 ReLU units and a 10-way
softmax output.  :class:`MLP` generalizes to any layer-size list while
keeping that configuration as the default.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.ml.activations import relu, relu_grad, softmax
from repro.ml.layers import DenseLayer
from repro.utils.rng import derive_seed, make_rng

DEFAULT_LAYER_SIZES = (784, 100, 10)


class MLP:
    """A feed-forward network of dense layers with ReLU hidden activations.

    It computes in its layers' dtype: float32 for a constructed network,
    the parameters' floating dtype for one built :meth:`from_parameters`.
    """

    def __init__(self, layer_sizes: Sequence[int] = DEFAULT_LAYER_SIZES, seed: Optional[int] = None) -> None:
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2:
            raise ShapeError(f"an MLP needs at least two layer sizes, got {sizes}")
        if any(s <= 0 for s in sizes):
            raise ShapeError(f"layer sizes must be positive, got {sizes}")
        layers: List[DenseLayer] = []
        for index, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layer_seed = None if seed is None else derive_seed(seed, f"layer-{index}")
            layers.append(DenseLayer(fan_in, fan_out, rng=make_rng(layer_seed)))
        self._adopt(layers, seed)

    def _adopt(self, layers: List[DenseLayer], seed: Optional[int]) -> None:
        self.layers = layers
        self.layer_sizes = (layers[0].in_features, *(layer.out_features for layer in layers))
        self.seed = seed
        self._hidden_pre_activations: List[np.ndarray] = []

    # -- forward -------------------------------------------------------------------

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Return output logits for a batch of inputs, caching activations."""
        activations = np.asarray(inputs)
        if activations.ndim == 1:
            activations = activations.reshape(1, -1)
        self._hidden_pre_activations = []
        for index, layer in enumerate(self.layers):
            pre_activation = layer.forward(activations)
            if index < len(self.layers) - 1:
                self._hidden_pre_activations.append(pre_activation)
                activations = relu(pre_activation)
            else:
                activations = pre_activation
        return activations

    def predict_proba(self, inputs: np.ndarray) -> np.ndarray:
        """Softmax class probabilities for a batch of inputs."""
        return softmax(self.forward(inputs))

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Predicted class indices for a batch of inputs."""
        return np.argmax(self.forward(inputs), axis=1)

    # -- backward ------------------------------------------------------------------

    def backward(self, grad_logits: np.ndarray) -> None:
        """Backpropagate a gradient with respect to the output logits."""
        if len(self._hidden_pre_activations) != len(self.layers) - 1:
            raise ShapeError("backward called before forward")
        grad = np.asarray(grad_logits)
        for index in range(len(self.layers) - 1, 0, -1):
            grad = self.layers[index].backward(grad)
            grad = grad * relu_grad(self._hidden_pre_activations[index - 1])
        # Nothing reads the gradient with respect to the network's input.
        self.layers[0].accumulate_gradients(grad)

    # -- parameters ----------------------------------------------------------------

    def get_parameters(self) -> List[Dict[str, np.ndarray]]:
        """Copies of every layer's parameters, input to output order."""
        return [layer.get_parameters() for layer in self.layers]

    @classmethod
    def from_parameters(cls, parameters: List[Dict[str, np.ndarray]]) -> "MLP":
        """Build an MLP whose architecture is inferred from a parameter list.

        The layers hold copies of ``parameters`` in their dtype (see
        :meth:`DenseLayer.from_parameters`); no weight is drawn.
        """
        if not parameters:
            raise ShapeError("cannot build an MLP from an empty parameter list")
        return cls.from_layers([DenseLayer.from_parameters(params) for params in parameters])

    @classmethod
    def from_layers(cls, layers: List[DenseLayer]) -> "MLP":
        """An MLP over ``layers`` themselves, which must chain shape to shape."""
        for index, (before, after) in enumerate(zip(layers, layers[1:])):
            if before.out_features != after.in_features:
                raise ShapeError(
                    f"layer {index} has {before.out_features} outputs but layer {index + 1} "
                    f"takes {after.in_features} inputs"
                )
        model = cls.__new__(cls)
        model._adopt(layers, None)
        return model

    def __repr__(self) -> str:
        parameters = sum(layer.weights.size + layer.biases.size for layer in self.layers)
        return f"MLP(layer_sizes={self.layer_sizes}, parameters={parameters})"
