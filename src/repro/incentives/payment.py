"""Turning contribution scores into ETH payments (Table 1 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import BudgetError
from repro.incentives.contribution import ContributionReport
from repro.utils.units import format_ether


@dataclass
class PaymentPlan:
    """Wei amounts per owner identifier, summing to at most the budget."""

    amounts_wei: Dict[str, int]
    budget_wei: int
    method: str

    @property
    def total_wei(self) -> int:
        """Total allocated wei."""
        return sum(self.amounts_wei.values())

    @property
    def unallocated_wei(self) -> int:
        """Budget left unallocated (returned to the buyer at finalization)."""
        return self.budget_wei - self.total_wei

    def to_rows(self) -> List[dict]:
        """Table rows in the paper's format (address, payment in ETH)."""
        return [
            {"wallet_address": owner, "payment_eth": format_ether(amount)}
            for owner, amount in self.amounts_wei.items()
        ]


def allocate_budget(
    report: ContributionReport,
    owner_ids: Sequence[str],
    budget_wei: int,
    reserve_fraction: float = 0.0,
    min_payment_wei: int = 0,
) -> PaymentPlan:
    """Split ``budget_wei`` across owners proportionally to their contribution.

    Parameters
    ----------
    report:
        Contribution scores keyed by owner index (0..n-1).
    owner_ids:
        Wallet addresses, in the same index order as the report's scores.
    budget_wei:
        Total escrowed reward (the paper uses 0.01 ETH).
    reserve_fraction:
        Fraction of the budget the buyer keeps back (e.g. to cover its own gas
        fees); the remainder is distributed.
    min_payment_wei:
        A floor paid to every participating owner regardless of contribution,
        taken out of the distributable budget before the proportional split.

    Negative contributions count as zero: an owner can never owe money.
    """
    if budget_wei <= 0:
        raise BudgetError(f"budget must be positive, got {budget_wei}")
    if not 0.0 <= reserve_fraction < 1.0:
        raise BudgetError(f"reserve_fraction must be in [0, 1), got {reserve_fraction}")
    num_owners = len(owner_ids)
    if num_owners != len(report.scores):
        raise BudgetError(
            f"{num_owners} owner ids but {len(report.scores)} contribution scores"
        )
    # Compute the reserve first and subtract, so float rounding can never push
    # the distributable amount above the integer budget.
    reserve_wei = min(budget_wei, int(budget_wei * reserve_fraction))
    distributable = budget_wei - reserve_wei
    floor_total = min_payment_wei * num_owners
    if floor_total > distributable:
        raise BudgetError(
            f"minimum payments ({floor_total} wei) exceed the distributable budget "
            f"({distributable} wei)"
        )

    scores = [max(report.scores[index], 0.0) for index in range(num_owners)]
    total_score = sum(scores)

    proportional_pool = distributable - floor_total
    amounts: Dict[str, int] = {}
    allocated = 0
    for index, owner in enumerate(owner_ids):
        if total_score > 0:
            share = int(proportional_pool * scores[index] / total_score)
        else:
            share = proportional_pool // num_owners
        # Floating-point rounding could overshoot the pool by a few wei when
        # shares are derived from float contribution scores; cap the running
        # total so the escrowed budget is never exceeded.
        share = min(share, proportional_pool - allocated)
        allocated += share
        amounts[str(owner)] = min_payment_wei + share
    return PaymentPlan(amounts_wei=amounts, budget_wei=budget_wei, method=report.method)
