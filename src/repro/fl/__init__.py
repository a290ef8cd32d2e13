"""Federated learning: the owner's client and the one-shot aggregators.

Each owner trains once and uploads once; the buyer aggregates the uploads
once: :class:`repro.fl.oneshot.pfnm.PFNMAggregator` (Bayesian-nonparametric
neuron matching, the algorithm the paper adopts),
:class:`repro.fl.oneshot.mean.MeanAggregator` (naive parameter averaging)
and :class:`repro.fl.oneshot.ensemble.EnsembleAggregator` (Guha et al. 2019
style ensembling).
"""

from repro.fl.client import FLClient, LocalTrainingResult
from repro.fl.model_update import ModelUpdate
from repro.fl.oneshot import (
    EnsembleAggregator,
    MeanAggregator,
    OneShotAggregator,
    PFNMAggregator,
    make_aggregator,
)

__all__ = [
    "FLClient",
    "LocalTrainingResult",
    "ModelUpdate",
    "EnsembleAggregator",
    "MeanAggregator",
    "OneShotAggregator",
    "PFNMAggregator",
    "make_aggregator",
]
