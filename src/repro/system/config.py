"""Experiment configuration.

:class:`OFLW3Config` gathers every knob of the end-to-end marketplace
experiment.  Two presets are provided:

* :func:`paper_config` -- the setting of the paper's Section 4: ten model
  owners, the (784, 100, 10) MLP, batch size 64, learning rate 0.001, ten
  local epochs, a 0.01 ETH budget and PFNM aggregation (on the synthetic
  MNIST stand-in, with PFNM's heterogeneous Dirichlet partition);
* :func:`quick_config` -- a scaled-down setting used by the test suite and
  the quickstart example so everything finishes in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Tuple

from repro.errors import ConfigError
from repro.utils.units import ether_to_wei, gwei_to_wei


@dataclass(frozen=True)
class OFLW3Config:
    """Configuration of one end-to-end marketplace run."""

    # Marketplace shape
    num_owners: int = 10
    budget_eth: str = "0.01"
    gas_price_gwei: float = 1.0
    buyer_funding_eth: str = "1.0"
    owner_funding_eth: str = "0.05"

    # Dataset (synthetic MNIST stand-in)
    num_samples: int = 20_000
    test_fraction: float = 0.15
    class_similarity: float = 0.5
    noise_scale: float = 0.4
    variation_scale: float = 1.2
    variation_rank: int = 24
    label_noise: float = 0.0

    # Partitioning: PFNM's heterogeneous Dirichlet split, its concentration.
    partition_alpha: float = 0.35

    # Model and local training
    layer_sizes: Tuple[int, ...] = (784, 100, 10)
    batch_size: int = 64
    learning_rate: float = 0.001
    local_epochs: int = 10

    # Aggregation and incentives
    aggregator: str = "pfnm"
    aggregator_kwargs: Dict[str, Any] = field(default_factory=dict)
    incentive_method: str = "leave_one_out"
    reserve_fraction: float = 0.0
    participation_floor_fraction: float = 0.3
    """Fraction of the budget split equally among all owners as a base
    participation reward; the remainder is allocated proportionally to
    contribution.  Ensures every participating owner appears in the payment
    table with a non-zero payment, as in the paper's Table 1."""

    # Reproducibility
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_owners <= 0:
            raise ConfigError(f"num_owners must be positive, got {self.num_owners}")
        if self.local_epochs <= 0:
            raise ConfigError(f"local_epochs must be positive, got {self.local_epochs}")
        if self.batch_size <= 0:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if len(self.layer_sizes) < 2:
            raise ConfigError(f"layer_sizes needs at least two entries, got {self.layer_sizes}")
        if not 0.0 <= self.participation_floor_fraction < 1.0:
            raise ConfigError(
                "participation_floor_fraction must be in [0, 1), "
                f"got {self.participation_floor_fraction}"
            )

    # -- derived quantities ---------------------------------------------------------

    @property
    def budget_wei(self) -> int:
        """The escrowed reward budget in wei."""
        return ether_to_wei(self.budget_eth)

    @property
    def gas_price_wei(self) -> int:
        """Gas price every wallet uses, in wei."""
        return gwei_to_wei(str(self.gas_price_gwei))

    @property
    def buyer_funding_wei(self) -> int:
        """Initial faucet funding of the buyer's wallet."""
        return ether_to_wei(self.buyer_funding_eth)

    @property
    def owner_funding_wei(self) -> int:
        """Initial faucet funding of each owner's wallet."""
        return ether_to_wei(self.owner_funding_eth)

    @property
    def min_payment_wei(self) -> int:
        """Per-owner participation floor derived from the budget."""
        distributable = self.budget_wei - min(
            self.budget_wei, int(self.budget_wei * self.reserve_fraction)
        )
        return int(distributable * self.participation_floor_fraction) // self.num_owners

    def with_overrides(self, **kwargs) -> "OFLW3Config":
        """A copy of this config with the given fields replaced."""
        return replace(self, **kwargs)


def paper_config(**overrides) -> OFLW3Config:
    """The configuration reproducing the paper's Section 4 experiments."""
    return OFLW3Config().with_overrides(**overrides)


def quick_config(**overrides) -> OFLW3Config:
    """A fast configuration for tests, examples and CI runs."""
    base = OFLW3Config(
        num_owners=4,
        num_samples=1_600,
        local_epochs=2,
        partition_alpha=0.5,
        class_similarity=0.3,
        noise_scale=0.25,
        variation_scale=0.6,
        variation_rank=8,
    )
    return base.with_overrides(**overrides)
