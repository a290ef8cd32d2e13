"""Tests for repro.data.dataset and repro.data.synthetic_mnist."""

import hashlib

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.data.dataset import Dataset, train_test_split
from repro.data.synthetic_mnist import SyntheticMnistConfig, generate_synthetic_mnist
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
        assert ds.num_features == 8

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

    def test_shuffled_has_same_multiset_of_labels(self):
        ds = small_dataset(40)
        shuffled = ds.shuffled(rng=1)
        assert sorted(shuffled.labels.tolist()) == sorted(ds.labels.tolist())


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


class TestSyntheticMnist:
    def test_shapes_and_ranges(self):
        ds = generate_synthetic_mnist(SyntheticMnistConfig(num_samples=300, seed=1))
        assert ds.num_features == 784
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
            SyntheticMnistConfig(num_classes=1)
        with pytest.raises(ValueError):
            SyntheticMnistConfig(class_similarity=1.0)
        with pytest.raises(ValueError):
            SyntheticMnistConfig(label_noise=-0.1)

    def test_non_square_feature_count_supported(self):
        ds = generate_synthetic_mnist(SyntheticMnistConfig(num_samples=50, num_features=100, seed=1))
        assert ds.num_features == 100


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
    must equal what the one-gather einsum it replaced produced."""

    # sha256(features || labels), computed on the commit before the block-wise
    # rewrite (a1f357b).
    @pytest.mark.parametrize("config, expected", [
        (_marketplace_dataset_config(quick_config(seed=7)),
         "25acc898bd710098cca69fe4d949e5f5aa6b1d3d01db87dd34ecc1177b9e558b"),
        (_marketplace_dataset_config(paper_config(seed=7)),
         "dd5962948c25e8d81ee75b882d3bc016ce533465cea207f2a82d5d0bf7b5c052"),
        (SyntheticMnistConfig(num_samples=700, label_noise=0.2, seed=3),
         "8656b6de4eecf4557d9638019be2dd2aa0269866dd6fc8d4f797fa88d59235c4"),
        # One sample past a block boundary, non-square features, odd rank.
        (SyntheticMnistConfig(num_samples=257, num_features=50, variation_rank=3, seed=11),
         "796ba45e0ab743baf078f2ccff8f694c1ce1e9cc112a9871dd46f492c7724318"),
    ], ids=["quick", "paper", "label-noise", "block-boundary"])
    def test_pinned_sha256(self, config, expected):
        assert _sha256(generate_synthetic_mnist(config)) == expected

    def test_equals_the_one_gather_reference(self):
        from repro.data.synthetic_mnist import _class_prototype
        from repro.utils.rng import derive_seed, make_rng

        config = SyntheticMnistConfig(num_samples=600, variation_rank=5, class_similarity=0.3,
                                      seed=9)
        prototype_rng = make_rng(derive_seed(config.seed, "prototypes"))
        prototypes = np.stack(
            [_class_prototype(prototype_rng, config) for _ in range(config.num_classes)])
        shared = _class_prototype(prototype_rng, config)
        prototypes = (config.class_similarity * shared[None, :]
                      + (1.0 - config.class_similarity) * prototypes)
        bases = make_rng(derive_seed(config.seed, "variation")).normal(
            0.0, 1.0, size=(config.num_classes, config.variation_rank, config.num_features))
        bases /= np.linalg.norm(bases, axis=2, keepdims=True) + 1e-12
        sample_rng = make_rng(derive_seed(config.seed, "samples"))
        labels = sample_rng.integers(0, config.num_classes, size=config.num_samples)
        coefficients = sample_rng.normal(
            0.0, config.variation_scale, size=(config.num_samples, config.variation_rank))
        noise = sample_rng.normal(
            0.0, config.noise_scale, size=(config.num_samples, config.num_features))
        reference = np.clip(
            prototypes[labels] + np.einsum("nr,nrf->nf", coefficients, bases[labels]) + noise,
            0.0, 1.0)

        generated = generate_synthetic_mnist(config)
        assert np.array_equal(generated.labels, labels)
        assert np.array_equal(generated.features, reference)
