"""Tests for repro.data.partition and repro.data.stats."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.data.dataset import Dataset
from repro.data.partition import (
    DIRICHLET_MAX_DRAWS,
    DIRICHLET_MIN_SAMPLES,
    dirichlet_partition,
    partition_dataset,
)
from repro.data.stats import label_distribution, label_entropy, partition_summary


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(0)
    n = 1000
    return Dataset(
        features=rng.random((n, 16)),
        labels=rng.integers(0, 10, size=n),
        num_classes=10,
    )


def assert_valid_partition(indices, dataset, num_clients):
    """Every sample assigned at most once, all clients non-empty."""
    assert len(indices) == num_clients
    combined = np.concatenate(indices)
    assert len(combined) == len(set(combined.tolist()))
    assert all(len(chunk) > 0 for chunk in indices)
    assert combined.max() < len(dataset)


class TestDirichlet:
    def test_partition_is_valid(self, dataset):
        parts = dirichlet_partition(dataset, 10, alpha=0.5, rng=2)
        assert_valid_partition(parts, dataset, 10)

    def test_small_alpha_more_skewed_than_large_alpha(self, dataset):
        skewed = [dataset.subset(p) for p in dirichlet_partition(dataset, 8, alpha=0.1, rng=3)]
        uniform = [dataset.subset(p) for p in dirichlet_partition(dataset, 8, alpha=100.0, rng=3)]
        assert np.mean([label_entropy(c) for c in skewed]) < np.mean(
            [label_entropy(c) for c in uniform]
        )

    def test_min_samples_respected(self, dataset):
        parts = dirichlet_partition(dataset, 20, alpha=0.1, rng=4)
        assert min(len(p) for p in parts) >= DIRICHLET_MIN_SAMPLES

    def test_invalid_alpha_rejected(self, dataset):
        with pytest.raises(PartitionError):
            dirichlet_partition(dataset, 5, alpha=0.0)

    def test_gives_up_after_the_draw_limit(self, dataset):
        # 120 clients cannot each hold DIRICHLET_MIN_SAMPLES of 1 000 rows.
        with pytest.raises(PartitionError, match=f"after {DIRICHLET_MAX_DRAWS} draws"):
            dirichlet_partition(dataset, 120, alpha=0.5, rng=0)

    def test_reproducible_with_seed(self, dataset):
        a = dirichlet_partition(dataset, 6, alpha=0.5, rng=9)
        b = dirichlet_partition(dataset, 6, alpha=0.5, rng=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestPartitionDataset:
    def test_returns_dataset_objects(self, dataset):
        clients = partition_dataset(dataset, 4, alpha=0.5, rng=1)
        assert all(isinstance(client, Dataset) for client in clients)
        assert sum(len(client) for client in clients) == len(dataset)

    def test_more_clients_than_samples_rejected(self):
        tiny = Dataset(features=np.ones((3, 2)), labels=np.array([0, 1, 2]), num_classes=3)
        with pytest.raises(PartitionError):
            partition_dataset(tiny, 10)


class TestStats:
    def test_label_distribution_sums_to_one(self, dataset):
        assert np.isclose(label_distribution(dataset).sum(), 1.0)

    def test_entropy_of_single_class_is_zero(self):
        single = Dataset(features=np.ones((5, 2)), labels=np.zeros(5, dtype=int), num_classes=3)
        assert label_entropy(single) == 0.0

    def test_entropy_of_uniform_distribution(self):
        labels = np.repeat(np.arange(10), 10)
        uniform = Dataset(features=np.ones((100, 2)), labels=labels, num_classes=10)
        assert np.isclose(label_entropy(uniform), np.log(10))

    def test_partition_summary_fields(self, dataset):
        clients = partition_dataset(dataset, 5, alpha=0.5, rng=1)
        summary = partition_summary(clients)
        assert summary["num_clients"] == 5
        assert summary["total_samples"] == len(dataset)
        assert summary["min_size"] <= summary["max_size"]
        assert len(summary["classes_per_client"]) == 5
