"""Table 1 -- the payment table.

The paper allocates a 0.01 ETH budget across ten owner wallets in proportion
to their LOO contribution and lists the resulting per-wallet payments
(0.0004 - 0.0017 ETH each).  The bench regenerates that table from the
paper-scale marketplace run (real wallet addresses on the simulated chain,
payments actually executed through the FLTask escrow) and recomputes the
budget allocation from the same contributions.
"""

from repro.incentives import allocate_budget, format_payment_table, leave_one_out
from repro.utils.units import ether_to_wei, format_ether

from .conftest import print_table


def test_table1_payment_table(paper_report):
    """Regenerate Table 1 and recompute the allocation step."""
    report = paper_report

    rows = [
        (row["wallet_address"], row["payment_eth"])
        for row in report.payment_rows()
    ]
    print_table("Table 1 - payment table (0.01 ETH budget, LOO allocation)",
                rows, ["Wallet Address", "Payment (ETH)"])
    print(f"total paid: {format_ether(report.total_paid_wei)} ETH "
          f"of {format_ether(report.config.budget_wei)} ETH budget")

    # The payments were actually executed on-chain from the escrow.
    assert 0 < report.total_paid_wei <= report.config.budget_wei
    assert len(report.payments_wei) == report.config.num_owners
    # Per-owner payments are in the paper's per-wallet magnitude range
    # (budget/num_owners on average; nobody gets the whole budget).
    assert max(report.payments_wei.values()) < report.config.budget_wei
    # Owners with higher contribution are paid at least as much as lower ones.
    paid_sorted_by_contribution = [
        report.payments_wei[address]
        for address in sorted(report.contributions, key=report.contributions.get)
    ]
    clipped = [max(report.contributions[a], 0.0) for a in report.owner_addresses]
    if any(clipped):
        assert paid_sorted_by_contribution[-1] == max(report.payments_wei.values())

    # The allocation computation itself (contribution -> wei table).
    contributions = report.contributions
    loo_like = leave_one_out(
        len(report.owner_addresses),
        lambda subset: sum(
            max(contributions[report.owner_addresses[i]], 0.0) for i in subset
        ),
    )
    plan = allocate_budget(loo_like, report.owner_addresses, ether_to_wei("0.01"))
    print(format_payment_table(plan, title="Recomputed allocation (same contributions)"))
    assert plan.total_wei <= ether_to_wei("0.01")
