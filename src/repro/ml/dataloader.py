"""Minibatch iteration."""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.utils.rng import make_rng


def batch_iterator(
    features: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
    rng=None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield shuffled ``(features, labels)`` minibatches; the last may be
    partial.  The shuffle draws from ``rng``, so a seed reproduces it."""
    features = np.asarray(features)
    labels = np.asarray(labels)
    if features.shape[0] != labels.shape[0]:
        raise ShapeError(
            f"features and labels disagree on sample count: {features.shape[0]} vs {labels.shape[0]}"
        )
    if batch_size <= 0:
        raise ValueError(f"batch size must be positive, got {batch_size}")
    count = features.shape[0]
    indices = np.arange(count)
    make_rng(rng).shuffle(indices)
    for start in range(0, count, batch_size):
        batch = indices[start:start + batch_size]
        yield features[batch], labels[batch]
