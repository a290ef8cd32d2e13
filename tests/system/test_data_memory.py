"""The marketplace's data exists once.

``build_environment`` places every sample before generating it -- the split
and the partition are computed as row indices from the labels alone -- and
generates the rows once, straight into one owner-major array:
``[owner 0 | ... | owner k-1 | train rows no owner holds | test]``.  Every
owner's dataset, the train set and the test set are views of that array, and
their bytes are exactly what copying out a split and a partition gives.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.data import (
    SyntheticMnistConfig,
    generate_synthetic_mnist,
    partition_dataset,
    train_test_split,
)
from repro.system.config import quick_config
from repro.system.orchestrator import build_environment
from repro.utils.rng import derive_seed

# The quick config's Dirichlet concentration, a skewed one (most owners see a
# few classes) and a near-uniform one (every owner sees every class).
ALPHAS = [pytest.param(0.5, id="dirichlet"),
          pytest.param(0.1, id="dirichlet-skewed"),
          pytest.param(100.0, id="dirichlet-near-uniform")]


def copied_out(config):
    """Owner and test datasets the way a copying split and partition build them."""
    dataset = generate_synthetic_mnist(SyntheticMnistConfig(
        num_samples=config.num_samples, class_similarity=config.class_similarity,
        noise_scale=config.noise_scale, variation_scale=config.variation_scale,
        variation_rank=config.variation_rank, label_noise=config.label_noise,
        seed=config.seed))
    train, test = train_test_split(dataset, config.test_fraction,
                                   rng=derive_seed(config.seed, "split"))
    owners = partition_dataset(train, config.num_owners, alpha=config.partition_alpha,
                               rng=derive_seed(config.seed, "partition"))
    return dataset, train, test, owners


@pytest.fixture(scope="module", params=ALPHAS)
def built(request):
    config = quick_config(seed=3, partition_alpha=request.param)
    build_environment(config).stack.close()  # imports and first-call caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        env = build_environment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    yield config, env, peak
    env.stack.close()


def one_array(env):
    """The array every owner's dataset, the train set and the test set view."""
    array = env.test_dataset.features.base
    assert array is not None
    for dataset in [owner.dataset for owner in env.owners] + [env.train_dataset]:
        assert dataset.features.base is array
        assert dataset.labels.base is env.test_dataset.labels.base
    return array


def first_row(dataset, array):
    """Where ``dataset``'s rows start in ``array``."""
    offset = (dataset.features.__array_interface__["data"][0]
              - array.__array_interface__["data"][0])
    return offset // array.strides[0]


def test_owners_train_and_test_are_views_of_one_array(built):
    config, env, _ = built
    array = one_array(env)
    assert array.shape == (config.num_samples, 784)
    for dataset in [owner.dataset for owner in env.owners] + [env.train_dataset, env.test_dataset]:
        assert np.shares_memory(dataset.features, array)
    assert not array.flags.writeable


def test_the_partitions_are_disjoint_and_owner_major(built):
    _, env, _ = built
    array = one_array(env)
    shards = [owner.dataset for owner in env.owners]
    for index, first in enumerate(shards):
        for second in shards[index + 1:] + [env.test_dataset]:
            assert not np.shares_memory(first.features, second.features)
    # The shards back to back, then the train rows no owner holds, then the
    # test set up to the last row.
    ends = np.cumsum([len(shard) for shard in shards]).tolist()
    assert [first_row(shard, array) for shard in shards] == [0] + ends[:-1]
    assert ends[-1] <= len(env.train_dataset)
    assert first_row(env.train_dataset, array) == 0
    assert first_row(env.test_dataset, array) == len(env.train_dataset)
    assert len(env.train_dataset) + len(env.test_dataset) == len(array)


def test_every_byte_equals_the_copying_split_and_partition(built):
    config, env, _ = built
    one_array(env)
    _, train, test, owners = copied_out(config)
    assert len(env.owners) == len(owners)
    for owner, expected in zip(env.owners, owners):
        assert np.array_equal(owner.dataset.features, expected.features)
        assert np.array_equal(owner.dataset.labels, expected.labels)
    assert np.array_equal(env.test_dataset.features, test.features)
    assert np.array_equal(env.test_dataset.labels, test.labels)
    # The train set keeps its rows (owner-major now) and its length, rows no
    # owner holds included.
    assert len(env.train_dataset) == len(train)
    assert sorted(map(bytes, env.train_dataset.features)) == sorted(map(bytes, train.features))


def test_building_peaks_under_one_point_six_datasets(built):
    config, env, peak = built
    dataset_bytes = env.train_dataset.features.base.nbytes + config.num_samples * 8
    assert peak <= 1.6 * dataset_bytes, (
        f"build_environment peaked at {peak / dataset_bytes:.2f}x the dataset's bytes")

