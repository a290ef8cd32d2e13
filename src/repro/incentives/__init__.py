"""Incentive mechanisms: contribution measurement and payment allocation.

Step 7 of the OFL-W3 workflow: after aggregating the models, the buyer
measures each owner's marginal contribution (the paper uses Leave-one-out)
and converts contributions into ETH payments drawn from the escrowed budget.
Shapley values (exact and Monte-Carlo) are provided as the natural extension
and are compared against LOO in the incentive ablation benchmark.
"""

from repro.incentives.contribution import (
    ContributionReport,
    leave_one_out,
    shapley_monte_carlo,
)
from repro.incentives.payment import PaymentPlan, allocate_budget
from repro.incentives.report import format_payment_table

__all__ = [
    "ContributionReport",
    "leave_one_out",
    "shapley_monte_carlo",
    "PaymentPlan",
    "allocate_budget",
    "format_payment_table",
]
