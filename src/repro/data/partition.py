"""Federated data partitioning.

The paper follows PFNM's non-IID partitioning of MNIST across ten model
owners.  Four schemes are provided:

* :func:`iid_partition` -- uniform random split (the homogeneous baseline);
* :func:`dirichlet_partition` -- per-client class proportions drawn from a
  Dirichlet(alpha) distribution, the scheme used by PFNM and most follow-up
  work (small alpha = highly skewed);
* :func:`label_skew_partition` -- each client holds only ``classes_per_client``
  classes (the "#C=k" pathological split);
* :func:`shard_partition` -- the original FedAvg shard scheme (sort by label,
  deal out two shards per client).

All functions return a list of index arrays into the given dataset, one per
client.
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

#: Shards each client is dealt by :func:`shard_partition`, as in FedAvg.
SHARDS_PER_CLIENT = 2


def _validate(dataset: Dataset, num_clients: int) -> None:
    """Shared argument validation."""
    if num_clients <= 0:
        raise PartitionError(f"num_clients must be positive, got {num_clients}")
    if len(dataset) < num_clients:
        raise PartitionError(
            f"cannot split {len(dataset)} samples across {num_clients} clients"
        )


def iid_partition(dataset: Dataset, num_clients: int, rng=None) -> List[np.ndarray]:
    """Shuffle and deal samples round-robin, giving near-equal IID shards."""
    _validate(dataset, num_clients)
    indices = np.arange(len(dataset))
    make_rng(rng).shuffle(indices)
    return [np.sort(part) for part in np.array_split(indices, num_clients)]


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


def label_skew_partition(
    dataset: Dataset,
    num_clients: int,
    classes_per_client: int = 2,
    rng=None,
) -> List[np.ndarray]:
    """Give each client samples from only ``classes_per_client`` classes.

    Class assignments rotate so that every class is covered by roughly the
    same number of clients; each class's samples are split evenly among the
    clients that hold it.
    """
    _validate(dataset, num_clients)
    if not 1 <= classes_per_client <= dataset.num_classes:
        raise PartitionError(
            f"classes_per_client must be in [1, {dataset.num_classes}], got {classes_per_client}"
        )
    generator = make_rng(rng)
    # Rotate class assignments: client i holds classes i, i+1, ... (mod C).
    assignments = [
        [(client + offset) % dataset.num_classes for offset in range(classes_per_client)]
        for client in range(num_clients)
    ]
    holders: List[List[int]] = [[] for _ in range(dataset.num_classes)]
    for client, classes in enumerate(assignments):
        for cls in classes:
            holders[cls].append(client)

    client_indices: List[List[int]] = [[] for _ in range(num_clients)]
    for cls in range(dataset.num_classes):
        class_indices = np.where(dataset.labels == cls)[0]
        generator.shuffle(class_indices)
        cls_holders = holders[cls]
        if not cls_holders:
            continue
        for holder, chunk in zip(cls_holders, np.array_split(class_indices, len(cls_holders))):
            client_indices[holder].extend(chunk.tolist())

    sizes = [len(chunk) for chunk in client_indices]
    if min(sizes) == 0:
        raise PartitionError(
            "label-skew partition left a client with no data; "
            "increase classes_per_client or the dataset size"
        )
    return [np.sort(np.asarray(chunk, dtype=np.int64)) for chunk in client_indices]


def shard_partition(
    dataset: Dataset,
    num_clients: int,
    rng=None,
) -> List[np.ndarray]:
    """The FedAvg shard scheme: sort by label, cut into shards, deal them out."""
    _validate(dataset, num_clients)
    num_shards = num_clients * SHARDS_PER_CLIENT
    if num_shards > len(dataset):
        raise PartitionError(
            f"{num_shards} shards requested but the dataset has only {len(dataset)} samples"
        )
    sorted_indices = np.argsort(dataset.labels, kind="stable")
    shards = np.array_split(sorted_indices, num_shards)
    order = np.arange(num_shards)
    make_rng(rng).shuffle(order)
    client_indices = [
        np.sort(np.concatenate([shards[order[client * SHARDS_PER_CLIENT + s]]
                                for s in range(SHARDS_PER_CLIENT)]))
        for client in range(num_clients)
    ]
    return client_indices


_SCHEMES = {
    "iid": iid_partition,
    "dirichlet": dirichlet_partition,
    "label_skew": label_skew_partition,
    "shard": shard_partition,
}


def partition_indices(
    labels: np.ndarray,
    num_classes: int,
    num_clients: int,
    scheme: str = "dirichlet",
    rng=None,
    **kwargs,
) -> List[np.ndarray]:
    """One sorted index array per client into ``labels``, from labels alone.

    ``scheme`` selects one of the index-level partitioners above:
    ``"iid"``, ``"dirichlet"``, ``"label_skew"`` or ``"shard"``.  The arrays
    are disjoint (no sample goes to two clients), so the clients' rows can
    be laid out side by side in one array.
    """
    if scheme not in _SCHEMES:
        raise PartitionError(f"unknown partition scheme {scheme!r}; expected one of {sorted(_SCHEMES)}")
    labels = np.asarray(labels, dtype=np.int64)
    # The partitioners read labels only: a zero-width dataset carries them.
    labels_only = Dataset(features=np.empty((labels.size, 0)), labels=labels,
                          num_classes=num_classes)
    indices = _SCHEMES[scheme](labels_only, num_clients, rng=rng, **kwargs)
    held = np.bincount(np.concatenate(indices), minlength=labels.size)
    if held.max(initial=0) > 1:
        raise PartitionError(f"the {scheme!r} partition gave a sample to more than one client")
    return indices


def partition_dataset(
    dataset: Dataset,
    num_clients: int,
    scheme: str = "dirichlet",
    rng=None,
    **kwargs,
) -> List[Dataset]:
    """Partition and materialize per-client :class:`Dataset` objects
    (see :func:`partition_indices`)."""
    indices = partition_indices(dataset.labels, dataset.num_classes, num_clients,
                                scheme=scheme, rng=rng, **kwargs)
    return [dataset.subset(chunk) for chunk in indices]
