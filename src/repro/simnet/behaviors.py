"""Owner archetypes: how a model owner can deviate from the happy path.

The paper's evaluation assumes every owner is honest.  Realistic marketplace
traffic is not: participants are slow, churn out mid-task, free-ride with
junk models, or actively poison the aggregate.  Each archetype below is a
small strategy object pluggable into :class:`~repro.system.roles.ModelOwner`
via its ``behavior`` parameter; an owner without a behavior (or with
:class:`HonestBehavior`) follows the seed's exact code path.

Hooks (all deterministic given the owner's seeded generator):

* ``prepare_dataset``   -- tamper with the private dataset before training
  (label-flipping poisoner);
* ``transform_update``  -- swap the trained update for something else before
  the IPFS upload (free-rider's zero/stale model);
* ``extra_upload_delay``-- simulated seconds the owner dawdles before
  uploading (straggler);
* ``drops_out``         -- whether the owner silently disappears before
  submitting its CID (churner).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.errors import SimulationError
from repro.fl.model_update import ModelUpdate
from repro.ml.mlp import MLP
from repro.utils.rng import make_rng

class OwnerBehavior:
    """Base archetype: the honest happy path (every hook is a no-op)."""

    archetype: str = "honest"
    is_adversarial: bool = False
    #: Whether the owner churns out before submitting its CID.
    drops_out: bool = False

    def prepare_dataset(self, dataset: Dataset, rng: np.random.Generator) -> Dataset:
        """Return the dataset the owner will actually train on."""
        return dataset

    def transform_update(self, update: ModelUpdate, rng: np.random.Generator) -> ModelUpdate:
        """Return the update the owner will actually upload."""
        return update

    def extra_upload_delay(self, rng: np.random.Generator) -> float:
        """Simulated seconds of dawdling before the IPFS upload."""
        return 0.0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(archetype={self.archetype!r})"


class HonestBehavior(OwnerBehavior):
    """Explicitly honest (identical to passing no behavior at all)."""


class StragglerBehavior(OwnerBehavior):
    """Participates fully but uploads late (slow GPU, flaky uplink, timezone)."""

    archetype = "straggler"

    def __init__(self, mean_delay_seconds: float = 300.0) -> None:
        if mean_delay_seconds < 0:
            raise SimulationError(f"mean_delay_seconds must be >= 0, got {mean_delay_seconds}")
        self.mean_delay_seconds = float(mean_delay_seconds)

    def extra_upload_delay(self, rng: np.random.Generator) -> float:
        """A uniform draw within 50% of the mean delay, added before the upload."""
        return float(rng.uniform(0.5 * self.mean_delay_seconds, 1.5 * self.mean_delay_seconds))


class DropoutBehavior(OwnerBehavior):
    """Registers, trains and uploads, then churns out before submitting its
    CID (never paid)."""

    archetype = "dropout"
    drops_out = True


class FreeRiderBehavior(OwnerBehavior):
    """Uploads a worthless model to collect the participation reward.

    * ``mode="zero"``  -- all-zero parameters (trivially detectable junk);
    * ``mode="stale"`` -- a freshly initialized, never-trained model (looks
      plausible on the wire, contributes nothing);
    * ``mode="noise"`` -- small random parameters (crude sybil padding).
    """

    archetype = "free_rider"
    is_adversarial = True

    MODES = ("zero", "stale", "noise")

    def __init__(self, mode: str = "stale") -> None:
        if mode not in self.MODES:
            raise SimulationError(f"free-rider mode must be one of {self.MODES}, got {mode!r}")
        self.mode = mode

    def transform_update(self, update: ModelUpdate, rng: np.random.Generator) -> ModelUpdate:
        """Replace the trained update with junk per the configured mode."""
        if self.mode == "zero":
            parameters = [
                {name: np.zeros_like(array) for name, array in layer.items()}
                for layer in update.parameters
            ]
        elif self.mode == "stale":
            stale = MLP(update.layer_sizes, seed=int(rng.integers(0, 2**31 - 1)))
            parameters = stale.get_parameters()
        else:  # noise
            parameters = [
                {name: rng.normal(0.0, 0.01, size=array.shape) for name, array in layer.items()}
                for layer in update.parameters
            ]
        return ModelUpdate(
            parameters=parameters,
            num_samples=update.num_samples,
            client_id=update.client_id,
            metadata={**update.metadata, "free_rider_mode": self.mode},
        )


class LabelFlipPoisonerBehavior(OwnerBehavior):
    """Trains honestly -- on deliberately mislabeled data.

    A fraction of the local samples get their label ``y`` replaced with
    ``num_classes - 1 - y`` (the classic label-flipping attack), so the
    owner's update pulls the aggregate toward systematic misclassification.
    """

    archetype = "poisoner"
    is_adversarial = True

    def __init__(self, flip_fraction: float = 1.0) -> None:
        if not 0.0 < flip_fraction <= 1.0:
            raise SimulationError(
                f"flip_fraction must be in (0, 1], got {flip_fraction}")
        self.flip_fraction = float(flip_fraction)

    def prepare_dataset(self, dataset: Dataset, rng: np.random.Generator) -> Dataset:
        """Flip a fraction of the local labels before training starts."""
        labels = dataset.labels.copy()
        num_flipped = int(round(len(labels) * self.flip_fraction))
        if num_flipped == 0:
            return dataset
        indices = rng.choice(len(labels), size=num_flipped, replace=False)
        labels[indices] = dataset.num_classes - 1 - labels[indices]
        return Dataset(features=dataset.features, labels=labels,
                       num_classes=dataset.num_classes)


BEHAVIOR_ARCHETYPES = {
    "honest": HonestBehavior,
    "straggler": StragglerBehavior,
    "dropout": DropoutBehavior,
    "free_rider": FreeRiderBehavior,
    "poisoner": LabelFlipPoisonerBehavior,
}


def make_behavior(archetype: str, **kwargs) -> OwnerBehavior:
    """Instantiate a behavior by archetype name."""
    if archetype not in BEHAVIOR_ARCHETYPES:
        raise SimulationError(
            f"unknown owner archetype {archetype!r}; "
            f"choose from {sorted(BEHAVIOR_ARCHETYPES)}")
    return BEHAVIOR_ARCHETYPES[archetype](**kwargs)


def assign_behaviors(
    num_owners: int,
    fractions: Dict[str, float],
    seed: int = 0,
    behavior_kwargs: Optional[Dict[str, dict]] = None,
) -> List[Optional[OwnerBehavior]]:
    """Deterministically assign archetypes to owner slots.

    ``fractions`` maps archetype name to the fraction of owners that should
    exhibit it (e.g. ``{"poisoner": 0.3, "straggler": 0.2}``); counts are
    rounded to the nearest owner, everyone left over stays honest (``None``,
    i.e. the seed's exact code path).  Placement is a seeded permutation, so
    the same seed always afflicts the same owner indices.
    """
    if num_owners <= 0:
        raise SimulationError(f"num_owners must be positive, got {num_owners}")
    total_fraction = sum(fractions.values())
    if total_fraction > 1.0 + 1e-9:
        raise SimulationError(
            f"behavior fractions sum to {total_fraction:.3f} > 1.0: {fractions}")
    kwargs_by_archetype = behavior_kwargs or {}
    assignments: List[Optional[OwnerBehavior]] = [None] * num_owners
    rng = make_rng(seed, "assign-behaviors")
    order = list(rng.permutation(num_owners))
    cursor = 0
    for archetype in sorted(fractions):
        count = int(round(fractions[archetype] * num_owners))
        count = min(count, num_owners - cursor)
        for _ in range(count):
            slot = int(order[cursor])
            assignments[slot] = make_behavior(
                archetype, **kwargs_by_archetype.get(archetype, {}))
            cursor += 1
    return assignments


def adversary_fraction(behaviors: Sequence[Optional[OwnerBehavior]]) -> float:
    """Fraction of owners whose archetype is adversarial."""
    if not behaviors:
        return 0.0
    adversarial = sum(1 for b in behaviors if b is not None and b.is_adversarial)
    return adversarial / len(behaviors)


def archetype_counts(behaviors: Sequence[Optional[OwnerBehavior]]) -> Dict[str, int]:
    """Histogram of archetypes (honest included) across owner slots."""
    counts: Dict[str, int] = {}
    for behavior in behaviors:
        name = behavior.archetype if behavior is not None else "honest"
        counts[name] = counts.get(name, 0) + 1
    return counts
