"""Gas cost analysis (Fig. 5 of the paper).

The paper shows MetaMask screenshots of three transaction types -- contract
deployment, contract interaction (CID submission) and payment -- and observes
that deployment carries the heaviest fee (~0.002 ETH) while CID submission
and payment are comparable and much cheaper.  :func:`build_gas_cost_report`
tabulates exactly those categories from the simulated chain's explorer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.chain.chain import Blockchain
from repro.chain.explorer import Explorer
from repro.chain.gas import CALLDATA_NONZERO_BYTE, SSTORE_SET, TX_BASE
from repro.utils.units import format_ether


@dataclass
class GasCostRow:
    """One transaction category's gas/fee statistics."""

    category: str
    count: int
    mean_gas: float
    mean_fee_wei: float
    max_fee_wei: int
    total_fee_wei: int

    @property
    def mean_fee_eth(self) -> str:
        """Mean fee formatted in ETH (what the MetaMask screenshots show)."""
        return format_ether(int(self.mean_fee_wei))

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "category": self.category,
            "count": self.count,
            "mean_gas": self.mean_gas,
            "mean_fee_eth": self.mean_fee_eth,
            "max_fee_eth": format_ether(self.max_fee_wei),
            "total_fee_eth": format_ether(self.total_fee_wei),
        }


@dataclass
class GasCostReport:
    """Per-category rows plus the raw per-transaction records."""

    rows: Dict[str, GasCostRow] = field(default_factory=dict)
    transactions: List[dict] = field(default_factory=list)

    def category(self, name: str) -> Optional[GasCostRow]:
        """Look up one category row (``deployment``, ``cid_submission`` ...)."""
        return self.rows.get(name)

    def ordering_holds(self) -> bool:
        """Check the paper's qualitative claim.

        Deployment must be the most expensive category, and CID submission
        and payment must be within an order of magnitude of each other.
        """
        deployment = self.rows.get("deployment")
        cid = self.rows.get("cid_submission")
        payment = self.rows.get("payment")
        if deployment is None or cid is None or payment is None:
            return False
        heavier_than_others = (
            deployment.mean_fee_wei > cid.mean_fee_wei
            and deployment.mean_fee_wei > payment.mean_fee_wei
        )
        lower, higher = sorted([cid.mean_fee_wei, payment.mean_fee_wei])
        comparable = higher <= 10 * max(lower, 1)
        return heavier_than_others and comparable

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {name: row.to_dict() for name, row in self.rows.items()}


def _categorize(record) -> str:
    """Map an explorer record onto the paper's three categories."""
    if record.transaction.is_create:
        return "deployment"
    payload = record.transaction.decoded_payload()
    method = payload.get("method", "")
    if method == "uploadCid":
        return "cid_submission"
    if method == "payOwner":
        return "payment"
    if method == "registerOwner":
        return "registration"
    if method:
        return "other_contract_interaction"
    return "transfer"


def build_gas_cost_report(chain: Blockchain) -> GasCostReport:
    """Aggregate every on-chain transaction into Fig. 5's categories."""
    explorer = Explorer(chain)
    groups: Dict[str, List] = {}
    transactions: List[dict] = []
    for record in explorer.all_records():
        category = _categorize(record)
        groups.setdefault(category, []).append(record)
        row = record.to_row()
        row["category"] = category
        transactions.append(row)

    rows: Dict[str, GasCostRow] = {}
    for category, records in groups.items():
        fees = [rec.fee_wei for rec in records]
        gas = [rec.receipt.gas_used for rec in records]
        rows[category] = GasCostRow(
            category=category,
            count=len(records),
            mean_gas=sum(gas) / len(gas),
            mean_fee_wei=sum(fees) / len(fees),
            max_fee_wei=max(fees),
            total_fee_wei=sum(fees),
        )
    return GasCostReport(rows=rows, transactions=transactions)


def estimate_onchain_model_storage_gas(model_bytes: int) -> dict:
    """Estimate the gas to store a whole model on-chain vs storing its CID.

    Supports the paper's Step 4 argument: a 32-byte CID occupies one storage
    slot, while a ~317 KB model would need ~10,000 slots plus calldata,
    which is impractical on Ethereum.
    """
    slots = (model_bytes + 31) // 32
    model_gas = TX_BASE + slots * SSTORE_SET + model_bytes * CALLDATA_NONZERO_BYTE
    cid_gas = TX_BASE + SSTORE_SET + 64 * CALLDATA_NONZERO_BYTE
    return {
        "model_bytes": model_bytes,
        "storage_slots": slots,
        "model_storage_gas": model_gas,
        "cid_storage_gas": cid_gas,
        "gas_ratio": model_gas / cid_gas,
    }
