"""Tests for the owner archetype library and its ModelOwner integration."""

import numpy as np
import pytest

from repro.chain.chain import ChainConfig
from repro.chain.faucet import Faucet
from repro.chain.keys import KeyPair
from repro.chain.node import EthereumNode
from repro.contracts.registry import default_registry
from repro.data.dataset import Dataset
from repro.errors import SimulationError
from repro.ipfs.node import IpfsNode
from repro.ipfs.swarm import Swarm
from repro.ml.trainer import TrainingConfig
from repro.simnet.behaviors import (
    DropoutBehavior,
    FreeRiderBehavior,
    HonestBehavior,
    LabelFlipPoisonerBehavior,
    StragglerBehavior,
    adversary_fraction,
    archetype_counts,
    assign_behaviors,
    make_behavior,
)
from repro.system.roles import ModelOwner
from repro.utils.rng import make_rng
from repro.utils.units import ether_to_wei
from repro.web.wallet import MetaMaskWallet


def tiny_dataset(num_samples=60, num_classes=4, num_features=12, seed=0):
    rng = make_rng(seed)
    features = rng.normal(size=(num_samples, num_features))
    labels = rng.integers(0, num_classes, size=num_samples)
    return Dataset(features=features, labels=np.asarray(labels), num_classes=num_classes)


class TestArchetypes:
    def test_honest_hooks_are_noops(self):
        behavior = HonestBehavior()
        dataset = tiny_dataset()
        rng = make_rng(0)
        assert behavior.prepare_dataset(dataset, rng) is dataset
        assert behavior.extra_upload_delay(rng) == 0.0
        assert not behavior.drops_out
        assert not behavior.is_adversarial

    def test_poisoner_flips_labels(self):
        behavior = LabelFlipPoisonerBehavior(flip_fraction=1.0)
        dataset = tiny_dataset()
        poisoned = behavior.prepare_dataset(dataset, make_rng(0))
        assert np.array_equal(poisoned.labels,
                              dataset.num_classes - 1 - dataset.labels)
        assert np.array_equal(poisoned.features, dataset.features)
        assert behavior.is_adversarial

    def test_poisoner_partial_flip(self):
        behavior = LabelFlipPoisonerBehavior(flip_fraction=0.5)
        dataset = tiny_dataset(num_samples=100)
        poisoned = behavior.prepare_dataset(dataset, make_rng(1))
        flipped = int(np.sum(poisoned.labels != dataset.labels))
        # Some flips may be no-ops (label == num_classes-1-label impossible
        # for 4 classes), so exactly half must differ.
        assert flipped == 50

    def test_straggler_delay_is_bounded_and_deterministic(self):
        behavior = StragglerBehavior(mean_delay_seconds=100.0)
        first = behavior.extra_upload_delay(make_rng(7))
        second = behavior.extra_upload_delay(make_rng(7))
        assert first == second
        assert 50.0 <= first <= 150.0

    def test_free_rider_modes(self):
        from repro.fl.client import FLClient

        client = FLClient("owner", tiny_dataset(), layer_sizes=(12, 8, 4),
                          config=TrainingConfig(epochs=1, seed=1), seed=1)
        update = client.train_local().update
        zeroed = FreeRiderBehavior(mode="zero").transform_update(update, make_rng(0))
        assert all(
            not np.any(layer["weights"]) for layer in zeroed.parameters)
        stale = FreeRiderBehavior(mode="stale").transform_update(update, make_rng(0))
        assert stale.layer_sizes == update.layer_sizes
        assert any(
            not np.array_equal(a["weights"], b["weights"])
            for a, b in zip(stale.parameters, update.parameters))

    def test_make_behavior_registry(self):
        assert make_behavior("poisoner", flip_fraction=0.4).flip_fraction == 0.4
        with pytest.raises(SimulationError):
            make_behavior("saboteur")


class TestAssignment:
    def test_fractions_round_to_counts(self):
        behaviors = assign_behaviors(10, {"poisoner": 0.3, "dropout": 0.2}, seed=0)
        counts = archetype_counts(behaviors)
        assert counts == {"poisoner": 3, "dropout": 2, "honest": 5}
        assert adversary_fraction(behaviors) == pytest.approx(0.3)

    def test_assignment_is_deterministic(self):
        first = assign_behaviors(8, {"straggler": 0.5}, seed=3)
        second = assign_behaviors(8, {"straggler": 0.5}, seed=3)
        assert [type(b) for b in first] == [type(b) for b in second]
        third = assign_behaviors(8, {"straggler": 0.5}, seed=4)
        assert [b is not None for b in first] != [b is not None for b in third]

    def test_overfull_fractions_rejected(self):
        with pytest.raises(SimulationError):
            assign_behaviors(4, {"poisoner": 0.7, "dropout": 0.7}, seed=0)

    def test_empty_fractions_are_all_honest(self):
        behaviors = assign_behaviors(5, {}, seed=0)
        assert behaviors == [None] * 5


class TestModelOwnerIntegration:
    def _owner(self, behavior, seed=1):
        node = EthereumNode(config=ChainConfig(), backend=default_registry())
        faucet = Faucet(node)
        swarm = Swarm()
        buyer_keys = KeyPair.from_label("behavior-buyer")
        faucet.drip(buyer_keys.address, ether_to_wei(1))
        buyer_wallet = MetaMaskWallet(buyer_keys, node)
        receipt = buyer_wallet.deploy_contract(
            "FLTask", [{"task": "t", "model": [12, 8, 4], "max_owners": 2}],
            value_wei=ether_to_wei("0.001"))
        owner_keys = KeyPair.from_label("behavior-owner")
        faucet.drip(owner_keys.address, ether_to_wei(1))
        owner = ModelOwner(
            name="owner-0",
            wallet=MetaMaskWallet(owner_keys, node),
            ipfs=IpfsNode("owner-0", swarm),
            dataset=tiny_dataset(),
            training_config=TrainingConfig(epochs=1, seed=seed),
            seed=seed,
            behavior=behavior,
        )
        return owner, str(receipt.contract_address)

    def test_dropout_owner_never_submits(self):
        owner, task_address = self._owner(DropoutBehavior())
        result = owner.run_full_flow(task_address)
        assert result["dropped_out"] is True
        assert result["dropped_before"] == "submit"
        assert result["archetype"] == "dropout"
        assert "submission" not in result
        assert owner.wallet.read_contract(task_address, "getAllCids") == []

    def test_straggler_advances_clock_and_breakdown(self):
        owner, task_address = self._owner(
            StragglerBehavior(mean_delay_seconds=100.0))
        result = owner.run_full_flow(task_address)
        assert result["dropped_out"] is False
        # The owner draws its delay from its own behavior generator, which
        # no other straggler hook reads: the wait is exactly that one draw.
        expected = StragglerBehavior(mean_delay_seconds=100.0).extra_upload_delay(
            make_rng(1, "behavior-owner-0"))
        assert 50.0 <= expected <= 150.0
        assert owner.breakdown.phases["straggle_wait"] == pytest.approx(expected)

    def test_free_rider_uploads_zero_model(self):
        owner, task_address = self._owner(FreeRiderBehavior(mode="zero"))
        result = owner.run_full_flow(task_address)
        assert result["archetype"] == "free_rider"
        payload = owner.ipfs.cat(result["upload"]["cid"])
        from repro.fl.model_update import ModelUpdate

        update = ModelUpdate.from_payload(payload, num_samples=1)
        assert all(not np.any(layer["weights"]) for layer in update.parameters)

    def test_honest_owner_result_shape_is_unchanged(self):
        owner, task_address = self._owner(None)
        result = owner.run_full_flow(task_address)
        assert result["dropped_out"] is False
        assert result["archetype"] == "honest"
        assert {"owner", "training", "upload", "submission", "total_time"} <= set(result)
