"""Multi-round FedAvg (McMahan et al., 2017).

Included as the traditional-FL baseline the paper argues against for Web 3.0:
every round would require another set of on-chain interactions, so with the
typical "at least 100 iterations" the coordination overhead dwarfs the
one-shot workflow.  The ablation benchmark quantifies exactly that trade-off
(accuracy vs number of on-chain interactions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.errors import AggregationError
from repro.fl.client import FLClient
from repro.fl.model_update import ModelUpdate, check_compatible
from repro.ml.mlp import MLP
from repro.ml.trainer import TrainingConfig, evaluate_model


def weighted_average_parameters(updates: Sequence[ModelUpdate]) -> List[Dict[str, np.ndarray]]:
    """Sample-count weighted average of parameter lists (the FedAvg update)."""
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


@dataclass
class FedAvgConfig:
    """Hyperparameters of the multi-round loop."""

    num_rounds: int = 100
    local_epochs: int = 1
    batch_size: int = 64
    learning_rate: float = 0.001
    seed: Optional[int] = 0


@dataclass
class RoundRecord:
    """Evaluation after one communication round."""

    round_index: int
    test_accuracy: float
    test_loss: float
    participating_clients: List[str] = field(default_factory=list)


class FedAvgServer:
    """Coordinates multi-round federated averaging over a set of clients."""

    def __init__(self, clients: Sequence[FLClient], config: Optional[FedAvgConfig] = None,
                 layer_sizes=(784, 100, 10)) -> None:
        if not clients:
            raise AggregationError("FedAvg needs at least one client")
        self.clients = list(clients)
        self.config = config or FedAvgConfig()
        self.layer_sizes = tuple(layer_sizes)
        self.global_model = MLP(self.layer_sizes, seed=self.config.seed)
        self.history: List[RoundRecord] = []

    def run(self, test_dataset: Optional[Dataset] = None) -> List[RoundRecord]:
        """Run the configured number of rounds, every client in each; returns
        per-round records."""
        local_config = TrainingConfig(
            batch_size=self.config.batch_size,
            learning_rate=self.config.learning_rate,
            epochs=self.config.local_epochs,
            seed=self.config.seed,
        )
        for round_index in range(self.config.num_rounds):
            updates: List[ModelUpdate] = []
            global_parameters = self.global_model.get_parameters()
            for client in self.clients:
                client.config = local_config
                result = client.train_local(initial_parameters=global_parameters)
                updates.append(result.update)
            self.global_model.set_parameters(weighted_average_parameters(updates))
            record = RoundRecord(
                round_index=round_index,
                test_accuracy=float("nan"),
                test_loss=float("nan"),
                participating_clients=[client.client_id for client in self.clients],
            )
            if test_dataset is not None:
                evaluation = evaluate_model(
                    self.global_model, test_dataset.features, test_dataset.labels
                )
                record.test_accuracy = evaluation.accuracy
                record.test_loss = evaluation.loss
            self.history.append(record)
        return self.history

    @property
    def total_client_uploads(self) -> int:
        """Number of client->server model uploads performed so far.

        For the Web 3.0 cost comparison: each upload would be one IPFS add
        plus one on-chain CID submission.
        """
        return sum(len(record.participating_clients) for record in self.history)
