"""One-shot ensembling (Guha et al., 2019).

The first one-shot FL proposal: keep every client model and average their
predicted probabilities, each weighted by the client's sample count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import AggregationError
from repro.fl.model_update import ModelUpdate, check_compatible
from repro.fl.oneshot.base import AggregationResult, OneShotAggregator
from repro.ml.mlp import MLP


@dataclass
class EnsemblePredictor:
    """Averages class probabilities over member models."""

    members: List[MLP]
    weights: np.ndarray

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Weighted mean of the members' class probabilities."""
        if not self.members:
            raise AggregationError("ensemble has no members")
        weights = np.asarray(self.weights, dtype=np.float64)
        weights = weights / weights.sum()
        stacked = np.stack([member.predict_proba(features) for member in self.members])
        return np.tensordot(weights, stacked, axes=1)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted class indices."""
        return np.argmax(self.predict_proba(features), axis=1)


class EnsembleAggregator(OneShotAggregator):
    """Sample-count weighted probability-averaging ensemble."""

    name = "ensemble"

    def aggregate(self, updates: Sequence[ModelUpdate]) -> AggregationResult:
        """Build the ensemble of every update's model."""
        updates = list(updates)
        check_compatible(updates)
        members = [update.to_model() for update in updates]
        weights = np.array([update.num_samples for update in updates], dtype=np.float64)
        return AggregationResult(
            predictor=EnsemblePredictor(members=members, weights=weights),
            algorithm=self.name,
            num_updates=len(updates),
            details={"num_members": len(members)},
        )
