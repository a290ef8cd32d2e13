"""Federated learning: clients, servers and aggregation algorithms.

Two families of aggregation are provided:

* **Multi-round** -- :class:`repro.fl.fedavg.FedAvgServer` implements the
  classic FedAvg loop (McMahan et al., 2017).  The paper uses it as the
  overhead comparison point: ~100 rounds of on-chain coordination would be
  prohibitively slow and expensive on Web 3.0.
* **One-shot** -- a single upload per owner, aggregated once by the buyer:
  :class:`repro.fl.oneshot.pfnm.PFNMAggregator` (Bayesian-nonparametric
  neuron matching, the algorithm the paper adopts),
  :class:`repro.fl.oneshot.mean.MeanAggregator` (naive parameter averaging)
  and :class:`repro.fl.oneshot.ensemble.EnsembleAggregator` (Guha et al.
  2019 style ensembling).
"""

from repro.fl.client import FLClient, LocalTrainingResult
from repro.fl.fedavg import FedAvgConfig, FedAvgServer, RoundRecord
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
    "FedAvgConfig",
    "FedAvgServer",
    "RoundRecord",
    "ModelUpdate",
    "EnsembleAggregator",
    "MeanAggregator",
    "OneShotAggregator",
    "PFNMAggregator",
    "make_aggregator",
]
