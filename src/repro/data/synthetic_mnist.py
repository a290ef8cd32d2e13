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
from typing import Optional, Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.utils.rng import derive_seed, make_rng

IMAGE_SIDE = 28
NUM_PIXELS = IMAGE_SIDE * IMAGE_SIDE
NUM_CLASSES = 10
#: Samples finished per block.  A block's float64 temporaries (chiefly its
#: (samples, rank, features) basis gather) sit beside the whole float32
#: dataset at the generator's peak; the bytes do not depend on this size.
_BLOCK_SAMPLES = 16
#: Random Gaussian strokes summed into each class prototype.
STROKES_PER_CLASS = 6


@dataclass(frozen=True)
class SyntheticMnistConfig:
    """Parameters of the synthetic dataset generator."""

    num_samples: int = 10_000
    num_features: int = NUM_PIXELS
    variation_rank: int = 8
    variation_scale: float = 0.35
    noise_scale: float = 0.10
    class_similarity: float = 0.0
    label_noise: float = 0.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_samples <= 0:
            raise ValueError(f"num_samples must be positive, got {self.num_samples}")
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
    for _ in range(STROKES_PER_CLASS):
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


def _draw_labels(config: SyntheticMnistConfig) -> Tuple[np.random.Generator, np.ndarray, np.ndarray]:
    """The sample stream just past its labels, the class each sample is drawn
    from, and the label it is published with (after any label noise)."""
    sample_rng = make_rng(derive_seed(config.seed, "samples"))
    classes = sample_rng.integers(0, NUM_CLASSES, size=config.num_samples)
    labels = classes
    if config.label_noise > 0.0:
        # Flip a fraction of labels uniformly at random, putting an intrinsic
        # ceiling on achievable test accuracy (as real MNIST's ambiguity does).
        noise_rng = make_rng(derive_seed(config.seed, "label-noise"))
        flip = noise_rng.random(config.num_samples) < config.label_noise
        labels = classes.copy()
        labels[flip] = noise_rng.integers(0, NUM_CLASSES, size=int(flip.sum()))
    return sample_rng, classes, labels


def synthetic_mnist_labels(config: Optional[SyntheticMnistConfig] = None) -> np.ndarray:
    """The labels :func:`generate_synthetic_mnist` gives its samples, in sample
    order, drawn without generating a row: all a split or a partition needs to
    place every sample before it exists."""
    return _draw_labels(config or SyntheticMnistConfig())[2]


def generate_synthetic_mnist(
    config: Optional[SyntheticMnistConfig] = None,
    order: Optional[np.ndarray] = None,
) -> Dataset:
    """Generate the synthetic dataset described in the module docstring.

    The features are one float32 array.  ``order`` lays the samples out:
    row ``i`` of the result is sample ``order[i]`` (default: sample order).
    Every sample is drawn from the same streams whatever the order, so its
    bytes do not depend on where it lands.
    """
    config = config or SyntheticMnistConfig()
    count = config.num_samples
    if order is None:
        order = np.arange(count)
    order = np.asarray(order, dtype=np.int64)
    if order.shape != (count,) or not np.array_equal(np.sort(order), np.arange(count)):
        raise ValueError(f"order must be a permutation of the {count} samples")
    prototype_rng = make_rng(derive_seed(config.seed, "prototypes"))
    prototypes = np.stack(
        [_class_prototype(prototype_rng, config) for _ in range(NUM_CLASSES)]
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
        0.0, 1.0, size=(NUM_CLASSES, config.variation_rank, config.num_features)
    )
    variation_bases /= np.linalg.norm(variation_bases, axis=2, keepdims=True) + 1e-12

    sample_rng, classes, labels = _draw_labels(config)
    coefficients = sample_rng.normal(
        0.0, config.variation_scale, size=(count, config.variation_rank)
    )
    # The one (samples, features) float32 array, the precision the model
    # trains in.  Each block of samples is finished in float64, in sample
    # order -- its class prototype, its variation (gathering every sample's
    # basis at once would be a (samples, rank, features) tensor, 3 GB at the
    # paper's size), its noise (block by block, ``normal`` yields the same
    # stream as one (samples, features) draw), the clip -- and rounded once
    # as it is stored where ``order`` puts it.
    features = np.empty((count, config.num_features), dtype=np.float32)
    row_of_sample = np.empty(count, dtype=np.int64)
    row_of_sample[order] = np.arange(count)
    for start in range(0, count, _BLOCK_SAMPLES):
        samples = slice(start, start + _BLOCK_SAMPLES)
        block = prototypes[classes[samples]]
        block += np.einsum("nr,nrf->nf", coefficients[samples],
                           variation_bases[classes[samples]])
        block += sample_rng.normal(0.0, config.noise_scale, size=block.shape)
        np.clip(block, 0.0, 1.0, out=block)
        features[row_of_sample[samples]] = block

    return Dataset(features=features, labels=labels[order], num_classes=NUM_CLASSES)
