"""The local training loop model owners run before uploading their model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.ml.dataloader import batch_iterator
from repro.ml.losses import cross_entropy_with_softmax
from repro.ml.metrics import accuracy
from repro.ml.mlp import MLP
from repro.ml.optimizers import Adam, Optimizer, SGD
from repro.utils.rng import make_rng


@dataclass
class TrainingConfig:
    """Hyperparameters of local training.

    Defaults match the paper's experimental setup: batch size 64, learning
    rate 0.001 and 10 local epochs.
    """

    batch_size: int = 64
    learning_rate: float = 0.001
    epochs: int = 10
    optimizer: str = "adam"
    momentum: float = 0.9
    weight_decay: float = 0.0
    shuffle: bool = True
    seed: Optional[int] = None

    def build_optimizer(self) -> Optimizer:
        """Instantiate the configured optimizer."""
        name = self.optimizer.lower()
        if name == "adam":
            return Adam(learning_rate=self.learning_rate)
        if name == "sgd":
            return SGD(
                learning_rate=self.learning_rate,
                momentum=self.momentum,
                weight_decay=self.weight_decay,
            )
        raise ValueError(f"unknown optimizer {self.optimizer!r} (expected 'adam' or 'sgd')")


@dataclass
class EpochRecord:
    """Mean minibatch loss of one training epoch."""

    epoch: int
    loss: float


@dataclass
class TrainingHistory:
    """Per-epoch records of a training run."""

    epochs: List[EpochRecord] = field(default_factory=list)
    #: Training accuracy after the last epoch.
    final_accuracy: float = float("nan")

    @property
    def final_loss(self) -> float:
        """Training loss after the last epoch."""
        return self.epochs[-1].loss if self.epochs else float("nan")

    @property
    def losses(self) -> List[float]:
        """Loss values in epoch order."""
        return [record.loss for record in self.epochs]


@dataclass
class EvalResult:
    """Evaluation of a model on a dataset."""

    loss: float
    accuracy: float
    num_samples: int


class Trainer:
    """Trains an :class:`MLP` with minibatch gradient descent."""

    def __init__(self, model: MLP, config: Optional[TrainingConfig] = None) -> None:
        self.model = model
        self.config = config or TrainingConfig()
        self.optimizer = self.config.build_optimizer()

    def train(self, features: np.ndarray, labels: np.ndarray) -> TrainingHistory:
        """Run the configured number of epochs; returns the loss history."""
        history = TrainingHistory()
        rng = make_rng(self.config.seed, "trainer-shuffle")
        for epoch in range(self.config.epochs):
            epoch_losses: List[float] = []
            for batch_x, batch_y in batch_iterator(
                features, labels, self.config.batch_size, shuffle=self.config.shuffle, rng=rng
            ):
                logits = self.model.forward(batch_x)
                loss, grad = cross_entropy_with_softmax(logits, batch_y)
                self.model.backward(grad)
                self.optimizer.step(self.model.layers)
                epoch_losses.append(loss)
            history.epochs.append(
                EpochRecord(
                    epoch=epoch,
                    loss=float(np.mean(epoch_losses)) if epoch_losses else float("nan"),
                )
            )
        if history.epochs:
            history.final_accuracy = accuracy(self.model.predict(features), labels)
        return history

    def evaluate(self, features: np.ndarray, labels: np.ndarray) -> EvalResult:
        """Compute loss and accuracy on held-out data."""
        return evaluate_model(self.model, features, labels)


def evaluate_model(model: MLP, features: np.ndarray, labels: np.ndarray) -> EvalResult:
    """Evaluate any :class:`MLP` on ``(features, labels)``."""
    logits = model.forward(features)
    loss, _ = cross_entropy_with_softmax(logits, labels)
    predictions = np.argmax(logits, axis=1)
    return EvalResult(loss=loss, accuracy=accuracy(predictions, labels), num_samples=len(labels))
