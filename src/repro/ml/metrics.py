"""Classification metrics used in the evaluation."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of predictions equal to the integer labels."""
    predictions = np.asarray(predictions).ravel()
    labels = np.asarray(labels).ravel()
    if predictions.shape != labels.shape:
        raise ShapeError(f"shape mismatch: {predictions.shape} vs {labels.shape}")
    if predictions.size == 0:
        raise ShapeError("cannot compute accuracy of an empty batch")
    return float(np.mean(predictions == labels))
