"""A synthetic MNIST-like dataset.

MNIST is not available offline, so experiments use a synthetic 10-class,
784-dimensional (28x28) dataset with the statistical structure the
evaluation depends on:

* each class has a distinct smooth "digit-like" prototype image built from a
  few random Gaussian strokes;
* samples are the class prototype plus low-rank within-class variation plus
  pixel noise, clipped to [0, 1];
* classes are balanced by default and linearly separable *enough* that a
  well-trained MLP reaches high accuracy, while models trained on
  label-skewed shards generalize poorly to unseen classes -- which is the
  phenomenon Fig. 4 of the paper illustrates.

The substitution is documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.data.dataset import Dataset
from repro.utils.rng import derive_seed, make_rng

IMAGE_SIDE = 28
NUM_PIXELS = IMAGE_SIDE * IMAGE_SIDE
_BLOCK_SAMPLES = 256


@dataclass(frozen=True)
class SyntheticMnistConfig:
    """Parameters of the synthetic dataset generator."""

    num_samples: int = 10_000
    num_classes: int = 10
    num_features: int = NUM_PIXELS
    strokes_per_class: int = 6
    variation_rank: int = 8
    variation_scale: float = 0.35
    noise_scale: float = 0.10
    class_similarity: float = 0.0
    label_noise: float = 0.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_samples <= 0:
            raise ValueError(f"num_samples must be positive, got {self.num_samples}")
        if self.num_classes <= 1:
            raise ValueError(f"num_classes must be at least 2, got {self.num_classes}")
        if self.num_features <= 0:
            raise ValueError(f"num_features must be positive, got {self.num_features}")
        if not 0.0 <= self.class_similarity < 1.0:
            raise ValueError(f"class_similarity must be in [0, 1), got {self.class_similarity}")
        if not 0.0 <= self.label_noise < 1.0:
            raise ValueError(f"label_noise must be in [0, 1), got {self.label_noise}")


def _class_prototype(rng: np.random.Generator, config: SyntheticMnistConfig) -> np.ndarray:
    """Build one class prototype as a sum of random Gaussian strokes."""
    side = int(round(np.sqrt(config.num_features)))
    side = max(side, 2)
    ys, xs = np.mgrid[0:side, 0:side]
    image = np.zeros((side, side), dtype=np.float64)
    for _ in range(config.strokes_per_class):
        center_y, center_x = rng.uniform(side * 0.2, side * 0.8, size=2)
        sigma_y, sigma_x = rng.uniform(side * 0.05, side * 0.18, size=2)
        angle = rng.uniform(0, np.pi)
        dy, dx = ys - center_y, xs - center_x
        rot_y = dy * np.cos(angle) - dx * np.sin(angle)
        rot_x = dy * np.sin(angle) + dx * np.cos(angle)
        image += np.exp(-(rot_y**2 / (2 * sigma_y**2) + rot_x**2 / (2 * sigma_x**2)))
    image /= max(image.max(), 1e-9)
    flat = image.ravel()
    if flat.size >= config.num_features:
        return flat[: config.num_features]
    return np.pad(flat, (0, config.num_features - flat.size))


def generate_synthetic_mnist(config: Optional[SyntheticMnistConfig] = None) -> Dataset:
    """Generate the synthetic dataset described in the module docstring."""
    config = config or SyntheticMnistConfig()
    prototype_rng = make_rng(derive_seed(config.seed, "prototypes"))
    prototypes = np.stack(
        [_class_prototype(prototype_rng, config) for _ in range(config.num_classes)]
    )
    if config.class_similarity > 0.0:
        # Blend every class prototype toward a shared "background" so that
        # classes overlap and small local datasets cannot separate them well.
        shared = _class_prototype(prototype_rng, config)
        prototypes = (
            config.class_similarity * shared[None, :]
            + (1.0 - config.class_similarity) * prototypes
        )
    variation_rng = make_rng(derive_seed(config.seed, "variation"))
    variation_bases = variation_rng.normal(
        0.0, 1.0, size=(config.num_classes, config.variation_rank, config.num_features)
    )
    variation_bases /= np.linalg.norm(variation_bases, axis=2, keepdims=True) + 1e-12

    sample_rng = make_rng(derive_seed(config.seed, "samples"))
    labels = sample_rng.integers(0, config.num_classes, size=config.num_samples)
    coefficients = sample_rng.normal(
        0.0, config.variation_scale, size=(config.num_samples, config.variation_rank)
    )
    noise = sample_rng.normal(0.0, config.noise_scale, size=(config.num_samples, config.num_features))

    features = prototypes[labels]
    # Block by block: gathering every sample's basis at once is a
    # (samples, rank, features) tensor, 3 GB at the paper's size.
    for start in range(0, config.num_samples, _BLOCK_SAMPLES):
        rows = slice(start, start + _BLOCK_SAMPLES)
        features[rows] += np.einsum("nr,nrf->nf", coefficients[rows], variation_bases[labels[rows]])
    features += noise
    np.clip(features, 0.0, 1.0, out=features)

    if config.label_noise > 0.0:
        # Flip a fraction of labels uniformly at random, putting an intrinsic
        # ceiling on achievable test accuracy (as real MNIST's ambiguity does).
        noise_rng = make_rng(derive_seed(config.seed, "label-noise"))
        flip = noise_rng.random(config.num_samples) < config.label_noise
        labels = labels.copy()
        labels[flip] = noise_rng.integers(0, config.num_classes, size=int(flip.sum()))

    return Dataset(features=features, labels=labels, num_classes=config.num_classes)
