"""Naive one-shot parameter averaging.

The weakest one-shot baseline: average every client's parameters coordinate
by coordinate.  Because independently trained networks have no reason to
place corresponding neurons at corresponding indices (the permutation
invariance problem PFNM solves), this baseline degrades sharply under strong
heterogeneity -- which is exactly why the paper adopts PFNM instead.
"""

from __future__ import annotations

from typing import Sequence

from repro.fl.fedavg import weighted_average_parameters
from repro.fl.model_update import ModelUpdate
from repro.fl.oneshot.base import AggregationResult, OneShotAggregator
from repro.ml.mlp import MLP


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
