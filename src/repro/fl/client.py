"""The federated client (model owner's training side)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.data.dataset import Dataset
from repro.ml.mlp import MLP
from repro.ml.trainer import Trainer, TrainingConfig, TrainingHistory
from repro.fl.model_update import ModelUpdate
from repro.utils.rng import derive_seed


@dataclass
class LocalTrainingResult:
    """Everything produced by one local training run."""

    update: ModelUpdate
    history: TrainingHistory
    train_accuracy: float


class FLClient:
    """A data silo that trains models locally and shares only parameters."""

    def __init__(
        self,
        client_id: str,
        dataset: Dataset,
        layer_sizes=(784, 100, 10),
        config: Optional[TrainingConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.client_id = client_id
        self.dataset = dataset
        self.layer_sizes = tuple(layer_sizes)
        self.config = config or TrainingConfig()
        self.seed = seed
        self.model: Optional[MLP] = None

    @property
    def num_samples(self) -> int:
        """Number of local training samples."""
        return len(self.dataset)

    def _model_seed(self) -> Optional[int]:
        """The model's initial-weight seed, a function of the owner's seed
        alone: each owner is handed its own seed, so clients still start from
        different weights, and no key or address reaches the ML values."""
        if self.seed is None:
            return None
        return derive_seed(self.seed, "client-model")

    def train_local(self) -> LocalTrainingResult:
        """Train a fresh local model.

        This is the expensive step the owner performs before Step 2 of the
        workflow (uploading to IPFS).
        """
        model = MLP(self.layer_sizes, seed=self._model_seed())
        trainer = Trainer(model, self.config)
        history = trainer.train(self.dataset.features, self.dataset.labels)
        self.model = model
        update = ModelUpdate.from_model(
            model,
            num_samples=self.num_samples,
            client_id=self.client_id,
            metadata={"label_counts": self.dataset.class_counts().tolist()},
        )
        return LocalTrainingResult(
            update=update,
            history=history,
            train_accuracy=history.final_accuracy,
        )
