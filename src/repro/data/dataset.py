"""A small immutable dataset container."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class Dataset:
    """Float32 features and integer labels, with convenience accessors.

    Features already in float32 are kept as given (a view stays a view);
    any other input is copied into float32 once.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float32)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ShapeError(f"features must be 2-D, got shape {features.shape}")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ShapeError(
                f"labels must be 1-D with one entry per sample, got {labels.shape} "
                f"for {features.shape[0]} samples"
            )
        if self.num_classes <= 0:
            raise ShapeError(f"num_classes must be positive, got {self.num_classes}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ShapeError(
                f"labels must lie in [0, {self.num_classes}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """A new dataset restricted to ``indices`` (order preserved)."""
        index_array = np.asarray(indices, dtype=np.int64)
        return Dataset(
            features=self.features[index_array],
            labels=self.labels[index_array],
            num_classes=self.num_classes,
        )

    def rows(self, start: int, stop: int) -> "Dataset":
        """Rows ``start`` to ``stop`` as a view: no sample is copied."""
        return Dataset(
            features=self.features[start:stop],
            labels=self.labels[start:stop],
            num_classes=self.num_classes,
        )

    def class_counts(self) -> np.ndarray:
        """Number of samples per class (length ``num_classes``)."""
        return np.bincount(self.labels, minlength=self.num_classes)


def split_indices(num_samples: int, test_fraction: float = 0.2,
                  rng=None) -> Tuple[np.ndarray, np.ndarray]:
    """The shuffled ``(train, test)`` row indices :func:`train_test_split`
    cuts a dataset of ``num_samples`` rows into."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    indices = np.arange(num_samples)
    make_rng(rng).shuffle(indices)
    test_count = int(round(num_samples * test_fraction))
    return indices[test_count:], indices[:test_count]


def train_test_split(dataset: Dataset, test_fraction: float = 0.2, rng=None) -> Tuple[Dataset, Dataset]:
    """Split a dataset into train and test portions after shuffling.

    The split is stratification-free but shuffled, which is sufficient for the
    synthetic dataset's balanced classes.
    """
    train_indices, test_indices = split_indices(len(dataset), test_fraction, rng)
    return dataset.subset(train_indices), dataset.subset(test_indices)
