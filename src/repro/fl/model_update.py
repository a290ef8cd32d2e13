"""The unit of exchange between model owners and the buyer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import AggregationError
from repro.ml.mlp import MLP
from repro.ml.serialization import deserialize_parameters, serialize_parameters


@dataclass
class ModelUpdate:
    """One owner's contribution: model parameters plus sample-count metadata.

    ``num_samples`` weights the aggregation (clients with more data count
    more, as in FedAvg/PFNM); ``client_id`` ties the update back to the wallet
    address that should be paid.
    """

    parameters: List[Dict[str, np.ndarray]]
    num_samples: int
    client_id: str = ""
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_samples <= 0:
            raise AggregationError(
                f"model update must report a positive sample count, got {self.num_samples}"
            )
        if not self.parameters:
            raise AggregationError("model update has no parameters")

    @property
    def layer_sizes(self) -> tuple:
        """Architecture implied by the parameter shapes."""
        sizes = [self.parameters[0]["weights"].shape[0]]
        sizes.extend(params["weights"].shape[1] for params in self.parameters)
        return tuple(sizes)

    def to_model(self) -> MLP:
        """Materialize the update as a standalone model."""
        return MLP.from_parameters(self.parameters)

    @classmethod
    def from_model(cls, model: MLP, num_samples: int, client_id: str = "",
                   metadata: Optional[Dict[str, Any]] = None) -> "ModelUpdate":
        """Wrap a trained model into an update."""
        return cls(
            parameters=model.get_parameters(),
            num_samples=num_samples,
            client_id=client_id,
            metadata=dict(metadata or {}),
        )

    # -- wire form (what gets published to IPFS) ---------------------------------

    def to_payload(self) -> bytes:
        """Serialize to the byte payload uploaded to IPFS."""
        return serialize_parameters(self.parameters)

    @classmethod
    def from_payload(cls, payload: bytes, num_samples: int, client_id: str = "") -> "ModelUpdate":
        """Rebuild an update from an IPFS payload plus out-of-band metadata."""
        return cls(parameters=deserialize_parameters(payload), num_samples=num_samples,
                   client_id=client_id)


def check_compatible(updates: List[ModelUpdate]) -> tuple:
    """Verify all updates share one architecture; return it.

    Raises
    ------
    AggregationError
        If the list is empty or architectures differ.
    """
    if not updates:
        raise AggregationError("no model updates to aggregate")
    architectures = {update.layer_sizes for update in updates}
    if len(architectures) != 1:
        raise AggregationError(f"incompatible architectures: {sorted(architectures)}")
    return updates[0].layer_sizes
