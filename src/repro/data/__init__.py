"""Datasets and federated partitioning.

The paper evaluates on MNIST with the non-IID partitioning scheme of PFNM.
MNIST itself is not redistributable inside this offline reproduction, so
:mod:`repro.data.synthetic_mnist` generates a synthetic stand-in: a
784-dimensional, 10-class image-like dataset built from class prototypes with
low-rank within-class variation.  What the evaluation needs from the dataset
-- that a well-trained global model is far better than models trained on
label-skewed local shards -- is preserved.

:mod:`repro.data.partition` provides the federated (Dirichlet) split and
:mod:`repro.data.stats` quantifies its heterogeneity.
"""

from repro.data.dataset import Dataset, split_indices, train_test_split
from repro.data.partition import dirichlet_partition, partition_dataset
from repro.data.stats import label_distribution, label_entropy, partition_summary
from repro.data.synthetic_mnist import (
    SyntheticMnistConfig,
    generate_synthetic_mnist,
    synthetic_mnist_labels,
)

__all__ = [
    "Dataset",
    "split_indices",
    "train_test_split",
    "dirichlet_partition",
    "partition_dataset",
    "label_distribution",
    "label_entropy",
    "partition_summary",
    "SyntheticMnistConfig",
    "generate_synthetic_mnist",
    "synthetic_mnist_labels",
]
