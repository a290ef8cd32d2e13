"""Shared pytest fixtures.

Expensive objects (trained model updates, the quick marketplace report) are
session-scoped so the suite stays fast while many tests can assert against
realistic artifacts.
"""

from __future__ import annotations

import pytest

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.chain.chain import ChainConfig
from repro.contracts import default_registry
from repro.data import (
    SyntheticMnistConfig,
    generate_synthetic_mnist,
    train_test_split,
)
from repro.fl import FLClient
from repro.ml import TrainingConfig
from repro.system import quick_config, run_marketplace
from repro.utils.clock import SimulatedClock
from repro.utils.units import ether_to_wei, gwei_to_wei
from tests.oracles import label_skew_partition


@pytest.fixture()
def clock() -> SimulatedClock:
    """A fresh simulated clock."""
    return SimulatedClock()


@pytest.fixture()
def node() -> EthereumNode:
    """A fresh simulated chain node with the default contract registry."""
    return EthereumNode(config=ChainConfig(), backend=default_registry())


@pytest.fixture()
def faucet(node: EthereumNode) -> Faucet:
    """A faucet bound to the fresh node."""
    return Faucet(node)


@pytest.fixture()
def funded_keypair(node: EthereumNode, faucet: Faucet) -> KeyPair:
    """A key pair holding 10 ETH on the fresh node."""
    keys = KeyPair.from_label("test-account")
    faucet.drip(keys.address, ether_to_wei(10))
    return keys


@pytest.fixture()
def second_funded_keypair(node: EthereumNode, faucet: Faucet) -> KeyPair:
    """A second funded account for transfer / multi-party tests."""
    keys = KeyPair.from_label("test-account-2")
    faucet.drip(keys.address, ether_to_wei(10))
    return keys


GAS_PRICE = gwei_to_wei(1)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small synthetic dataset shared by ML / FL tests."""
    return generate_synthetic_mnist(
        SyntheticMnistConfig(num_samples=600, seed=11, noise_scale=0.2, variation_scale=0.5)
    )


@pytest.fixture(scope="session")
def tiny_split(tiny_dataset):
    """(train, test) split of the tiny dataset."""
    return train_test_split(tiny_dataset, test_fraction=0.25, rng=3)


@pytest.fixture(scope="session")
def tiny_client_datasets(tiny_split):
    """Three label-skewed client shards of the tiny training set."""
    train, _ = tiny_split
    return [train.subset(chunk)
            for chunk in label_skew_partition(train, 3, classes_per_client=4, rng=5)]


@pytest.fixture(scope="session")
def trained_updates(tiny_client_datasets):
    """Model updates from quick local training on each tiny client shard."""
    updates = []
    for index, dataset in enumerate(tiny_client_datasets):
        client = FLClient(
            f"client-{index}",
            dataset,
            config=TrainingConfig(epochs=2, batch_size=32, seed=index),
            seed=index,
        )
        updates.append(client.train_local().update)
    return updates


@pytest.fixture(scope="session")
def quick_marketplace_report():
    """One full marketplace run at test scale, shared across tests."""
    return run_marketplace(quick_config(seed=13))
