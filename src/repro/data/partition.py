"""Federated data partitioning.

The paper follows PFNM's non-IID partitioning of MNIST across ten model
owners: :func:`dirichlet_partition` draws per-client class proportions from a
Dirichlet(alpha) distribution (small alpha = highly skewed).  It returns a
list of index arrays into the given dataset, one per client.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import PartitionError
from repro.data.dataset import Dataset
from repro.utils.rng import make_rng

#: Fewest samples a Dirichlet draw may leave any client; fewer redraws.
DIRICHLET_MIN_SAMPLES = 10

#: Draws :func:`dirichlet_partition` makes before it gives up.
DIRICHLET_MAX_DRAWS = 100

def _validate(dataset: Dataset, num_clients: int) -> None:
    """Shared argument validation."""
    if num_clients <= 0:
        raise PartitionError(f"num_clients must be positive, got {num_clients}")
    if len(dataset) < num_clients:
        raise PartitionError(
            f"cannot split {len(dataset)} samples across {num_clients} clients"
        )


def dirichlet_partition(
    dataset: Dataset,
    num_clients: int,
    alpha: float = 0.5,
    rng=None,
) -> List[np.ndarray]:
    """Split by per-class Dirichlet(alpha) proportions (PFNM's scheme).

    Smaller ``alpha`` produces stronger label skew.  The draw is retried until
    every client holds at least :data:`DIRICHLET_MIN_SAMPLES` samples.
    """
    _validate(dataset, num_clients)
    if alpha <= 0:
        raise PartitionError(f"alpha must be positive, got {alpha}")
    generator = make_rng(rng)
    labels = dataset.labels
    for _ in range(DIRICHLET_MAX_DRAWS):
        client_indices: List[List[int]] = [[] for _ in range(num_clients)]
        for cls in range(dataset.num_classes):
            class_indices = np.where(labels == cls)[0]
            if class_indices.size == 0:
                continue
            generator.shuffle(class_indices)
            proportions = generator.dirichlet([alpha] * num_clients)
            cut_points = (np.cumsum(proportions) * class_indices.size).astype(int)[:-1]
            for client, chunk in enumerate(np.split(class_indices, cut_points)):
                client_indices[client].extend(chunk.tolist())
        sizes = [len(chunk) for chunk in client_indices]
        if min(sizes) >= DIRICHLET_MIN_SAMPLES:
            return [np.sort(np.asarray(chunk, dtype=np.int64)) for chunk in client_indices]
    raise PartitionError(
        f"could not give every one of {num_clients} clients {DIRICHLET_MIN_SAMPLES} samples "
        f"with alpha={alpha} after {DIRICHLET_MAX_DRAWS} draws"
    )


def partition_dataset(
    dataset: Dataset,
    num_clients: int,
    alpha: float = 0.5,
    rng=None,
) -> List[Dataset]:
    """Partition and materialize per-client :class:`Dataset` objects
    (see :func:`dirichlet_partition`)."""
    indices = dirichlet_partition(dataset, num_clients, alpha=alpha, rng=rng)
    return [dataset.subset(chunk) for chunk in indices]
