"""Loss functions.

Each computes in its input's dtype: a float32 network's loss and gradient
are float32.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ShapeError
from repro.ml.activations import softmax

_EPS = 1e-12


def cross_entropy_loss(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of integer ``labels`` under ``probabilities``."""
    probabilities = np.asarray(probabilities)
    labels = np.asarray(labels, dtype=np.int64)
    if probabilities.ndim != 2:
        raise ShapeError(f"probabilities must be 2-D, got shape {probabilities.shape}")
    if labels.shape[0] != probabilities.shape[0]:
        raise ShapeError(
            f"batch mismatch: {probabilities.shape[0]} probabilities vs {labels.shape[0]} labels"
        )
    picked = probabilities[np.arange(labels.shape[0]), labels]
    return float(-np.mean(np.log(picked + _EPS)))


def cross_entropy_with_softmax(logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Softmax cross-entropy loss and its gradient with respect to the logits.

    Returns ``(loss, grad)`` where ``grad`` already includes the 1/batch
    normalization, so it can be fed straight into the network's backward pass.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels, dtype=np.int64)
    probabilities = softmax(logits)
    loss = cross_entropy_loss(probabilities, labels)
    grad = probabilities.copy()
    grad[np.arange(labels.shape[0]), labels] -= 1.0
    grad /= labels.shape[0]
    return loss, grad
