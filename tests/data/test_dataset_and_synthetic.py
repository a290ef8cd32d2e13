"""Tests for repro.data.dataset and repro.data.synthetic_mnist."""

import hashlib

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.data.dataset import Dataset, split_indices, train_test_split
from repro.data.synthetic_mnist import (
    SyntheticMnistConfig,
    generate_synthetic_mnist,
    synthetic_mnist_labels,
)
from repro.system.config import paper_config, quick_config


def small_dataset(n=50, num_classes=5, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        features=rng.random((n, 8)),
        labels=rng.integers(0, num_classes, size=n),
        num_classes=num_classes,
    )


class TestDataset:
    def test_length_and_dimensions(self):
        ds = small_dataset(40)
        assert len(ds) == 40
        assert ds.features.shape[1] == 8

    def test_subset_preserves_pairing(self):
        ds = small_dataset(30)
        sub = ds.subset([3, 7, 11])
        assert np.array_equal(sub.features[1], ds.features[7])
        assert sub.labels[1] == ds.labels[7]

    def test_class_counts_sum_to_length(self):
        ds = small_dataset(60)
        assert ds.class_counts().sum() == 60

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            Dataset(features=np.ones((3, 2)), labels=np.array([0, 1, 5]), num_classes=3)

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Dataset(features=np.ones((3, 2)), labels=np.array([0, 1]), num_classes=2)

    def test_non_2d_features_rejected(self):
        with pytest.raises(ShapeError):
            Dataset(features=np.ones(3), labels=np.zeros(3, dtype=int), num_classes=2)


class TestTrainTestSplit:
    def test_split_sizes(self):
        train, test = train_test_split(small_dataset(100), test_fraction=0.2, rng=0)
        assert len(test) == 20
        assert len(train) == 80

    def test_split_is_disjoint_and_complete(self):
        ds = small_dataset(50)
        # Tag every sample with a unique feature value to track identity.
        ds = Dataset(
            features=np.arange(50, dtype=float).reshape(-1, 1), labels=ds.labels, num_classes=5
        )
        train, test = train_test_split(ds, test_fraction=0.3, rng=1)
        train_ids = set(train.features.ravel().tolist())
        test_ids = set(test.features.ravel().tolist())
        assert not train_ids & test_ids
        assert len(train_ids | test_ids) == 50

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            train_test_split(small_dataset(), test_fraction=1.5)

    def test_split_is_seeded(self):
        ds = small_dataset(50)
        a_train, _ = train_test_split(ds, rng=7)
        b_train, _ = train_test_split(ds, rng=7)
        assert np.array_equal(a_train.features, b_train.features)

    def test_split_indices_partition_the_rows(self):
        train, test = split_indices(30, test_fraction=0.2, rng=4)
        assert len(test) == 6
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(30))

    def test_split_indices_are_the_rows_train_test_split_takes(self):
        ds = Dataset(features=np.arange(40, dtype=float).reshape(-1, 1),
                     labels=small_dataset(40).labels, num_classes=5)
        train_rows, test_rows = split_indices(40, test_fraction=0.25, rng=9)
        train, test = train_test_split(ds, test_fraction=0.25, rng=9)
        assert train.features.ravel().tolist() == train_rows.astype(float).tolist()
        assert test.features.ravel().tolist() == test_rows.astype(float).tolist()

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1])
    def test_split_indices_reject_fractions_outside_the_open_interval(self, fraction):
        with pytest.raises(ValueError, match="test_fraction"):
            split_indices(10, test_fraction=fraction)


class TestSyntheticMnist:
    def test_shapes_and_ranges(self):
        ds = generate_synthetic_mnist(SyntheticMnistConfig(num_samples=300, seed=1))
        assert ds.features.shape[1] == 784
        assert ds.num_classes == 10
        assert len(ds) == 300
        assert ds.features.min() >= 0.0
        assert ds.features.max() <= 1.0

    def test_generation_is_deterministic(self):
        config = SyntheticMnistConfig(num_samples=100, seed=5)
        a = generate_synthetic_mnist(config)
        b = generate_synthetic_mnist(config)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = generate_synthetic_mnist(SyntheticMnistConfig(num_samples=100, seed=1))
        b = generate_synthetic_mnist(SyntheticMnistConfig(num_samples=100, seed=2))
        assert not np.array_equal(a.features, b.features)

    def test_all_classes_present(self):
        ds = generate_synthetic_mnist(SyntheticMnistConfig(num_samples=500, seed=1))
        assert np.count_nonzero(ds.class_counts()) == 10

    def test_classes_are_learnable(self):
        # A linear probe per-class mean classifier should beat chance easily.
        ds = generate_synthetic_mnist(SyntheticMnistConfig(num_samples=600, seed=3, noise_scale=0.2))
        means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(10)])
        distances = ((ds.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        predictions = distances.argmin(axis=1)
        assert (predictions == ds.labels).mean() > 0.5

    def test_class_similarity_increases_overlap(self):
        easy = generate_synthetic_mnist(SyntheticMnistConfig(num_samples=400, seed=4, class_similarity=0.0))
        hard = generate_synthetic_mnist(SyntheticMnistConfig(num_samples=400, seed=4, class_similarity=0.8))

        def mean_pairwise_prototype_distance(ds):
            means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(10)])
            diffs = means[:, None, :] - means[None, :, :]
            return np.sqrt((diffs**2).sum(axis=2)).mean()

        assert mean_pairwise_prototype_distance(hard) < mean_pairwise_prototype_distance(easy)

    def test_label_noise_flips_some_labels(self):
        clean = generate_synthetic_mnist(SyntheticMnistConfig(num_samples=400, seed=4))
        noisy = generate_synthetic_mnist(SyntheticMnistConfig(num_samples=400, seed=4, label_noise=0.3))
        assert (clean.labels != noisy.labels).mean() > 0.1

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SyntheticMnistConfig(num_samples=0)
        with pytest.raises(ValueError):
            SyntheticMnistConfig(class_similarity=1.0)
        with pytest.raises(ValueError):
            SyntheticMnistConfig(label_noise=-0.1)

    def test_non_square_feature_count_supported(self):
        ds = generate_synthetic_mnist(SyntheticMnistConfig(num_samples=50, num_features=100, seed=1))
        assert ds.features.shape[1] == 100


def _sha256(dataset) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(dataset.features).tobytes())
    digest.update(np.ascontiguousarray(dataset.labels).tobytes())
    return digest.hexdigest()


def _marketplace_dataset_config(config) -> SyntheticMnistConfig:
    """The generator config ``build_environment`` derives from a run config."""
    return SyntheticMnistConfig(
        num_samples=config.num_samples, class_similarity=config.class_similarity,
        noise_scale=config.noise_scale, variation_scale=config.variation_scale,
        variation_rank=config.variation_rank, label_noise=config.label_noise,
        seed=config.seed,
    )


class TestSyntheticMnistBytes:
    """The generator contracts each sample's basis block by block; every byte
    must equal what the one-gather einsum it replaced produced, rounded once
    to float32."""

    # sha256(features || labels): the float64 features of the commit before
    # the block-wise rewrite (a1f357b), rounded once to float32 -- what the
    # float64 generator's output gives through ``astype(np.float32)``.
    @pytest.mark.parametrize("config, expected", [
        (_marketplace_dataset_config(quick_config(seed=7)),
         "b301f41f645178675d18c677e780444d6b8be210074f85cadfa1207cc74fdc73"),
        (_marketplace_dataset_config(paper_config(seed=7)),
         "85d96d28e79e512580dcc1292d1a140be98ee12b29e7c0ba27507cc6e805aca0"),
        (SyntheticMnistConfig(num_samples=700, label_noise=0.2, seed=3),
         "6ee2751acbac92912951c06407d7042e5cac951b2a142dd0400838ff20ff6754"),
        # One sample past a block boundary, non-square features, odd rank.
        (SyntheticMnistConfig(num_samples=257, num_features=50, variation_rank=3, seed=11),
         "bb190a6092653cef1801997ad1120b182a8e303827f0d5902ab4254522249e1e"),
    ], ids=["quick", "paper", "label-noise", "block-boundary"])
    def test_pinned_sha256(self, config, expected):
        assert _sha256(generate_synthetic_mnist(config)) == expected

    def test_equals_the_one_gather_reference(self):
        from repro.data.synthetic_mnist import NUM_CLASSES, _class_prototype
        from repro.utils.rng import derive_seed, make_rng

        config = SyntheticMnistConfig(num_samples=600, variation_rank=5, class_similarity=0.3,
                                      seed=9)
        prototype_rng = make_rng(derive_seed(config.seed, "prototypes"))
        prototypes = np.stack(
            [_class_prototype(prototype_rng, config) for _ in range(NUM_CLASSES)])
        shared = _class_prototype(prototype_rng, config)
        prototypes = (config.class_similarity * shared[None, :]
                      + (1.0 - config.class_similarity) * prototypes)
        bases = make_rng(derive_seed(config.seed, "variation")).normal(
            0.0, 1.0, size=(NUM_CLASSES, config.variation_rank, config.num_features))
        bases /= np.linalg.norm(bases, axis=2, keepdims=True) + 1e-12
        sample_rng = make_rng(derive_seed(config.seed, "samples"))
        labels = sample_rng.integers(0, NUM_CLASSES, size=config.num_samples)
        coefficients = sample_rng.normal(
            0.0, config.variation_scale, size=(config.num_samples, config.variation_rank))
        noise = sample_rng.normal(
            0.0, config.noise_scale, size=(config.num_samples, config.num_features))
        reference = np.clip(
            prototypes[labels] + np.einsum("nr,nrf->nf", coefficients, bases[labels]) + noise,
            0.0, 1.0).astype(np.float32)

        generated = generate_synthetic_mnist(config)
        assert np.array_equal(generated.labels, labels)
        assert np.array_equal(generated.features, reference)

    @pytest.mark.parametrize("config", [
        SyntheticMnistConfig(num_samples=257, num_features=50, variation_rank=3, seed=11),
        SyntheticMnistConfig(num_samples=300, label_noise=0.2, seed=3),
    ], ids=["block-boundary", "label-noise"])
    def test_an_order_lays_out_the_same_rows(self, config):
        order = np.random.default_rng(0).permutation(config.num_samples)
        plain = generate_synthetic_mnist(config)
        laid_out = generate_synthetic_mnist(config, order=order)
        assert np.array_equal(laid_out.features, plain.features[order])
        assert np.array_equal(laid_out.labels, plain.labels[order])
        assert np.array_equal(synthetic_mnist_labels(config), plain.labels)

    @pytest.mark.parametrize("order", [[0, 1, 1], [0, 1], [0, 1, 3]])
    def test_an_order_must_be_a_permutation(self, order):
        with pytest.raises(ValueError, match="permutation"):
            generate_synthetic_mnist(SyntheticMnistConfig(num_samples=3, seed=1), order=order)
