"""Naive one-shot parameter averaging.

The weakest one-shot baseline: average every client's parameters coordinate
by coordinate.  Because independently trained networks have no reason to
place corresponding neurons at corresponding indices (the permutation
invariance problem PFNM solves), this baseline degrades sharply under strong
heterogeneity -- which is exactly why the paper adopts PFNM instead.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import AggregationError
from repro.fl.model_update import ModelUpdate, check_compatible
from repro.fl.oneshot.base import AggregationResult, OneShotAggregator
from repro.ml.mlp import MLP


def weighted_average_parameters(updates: Sequence[ModelUpdate]) -> List[Dict[str, np.ndarray]]:
    """Sample-count weighted average of parameter lists."""
    check_compatible(list(updates))
    total_samples = sum(update.num_samples for update in updates)
    if total_samples <= 0:
        raise AggregationError("total sample count must be positive")
    averaged: List[Dict[str, np.ndarray]] = []
    num_layers = len(updates[0].parameters)
    for layer_index in range(num_layers):
        weights = sum(
            (update.num_samples / total_samples) * update.parameters[layer_index]["weights"]
            for update in updates
        )
        biases = sum(
            (update.num_samples / total_samples) * update.parameters[layer_index]["biases"]
            for update in updates
        )
        averaged.append({"weights": weights, "biases": biases})
    return averaged


class MeanAggregator(OneShotAggregator):
    """Sample-count weighted coordinate-wise parameter mean."""

    name = "mean"

    def aggregate(self, updates: Sequence[ModelUpdate]) -> AggregationResult:
        """Average all updates into a single model."""
        updates = list(updates)
        model = MLP.from_parameters(weighted_average_parameters(updates))
        return AggregationResult(
            predictor=model,
            algorithm=self.name,
            num_updates=len(updates),
        )
