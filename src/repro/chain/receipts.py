"""Transaction receipts returned after block inclusion."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.chain.account import Address
from repro.chain.events import EventLog


@dataclass
class TransactionReceipt:
    """Outcome of an executed transaction.

    Mirrors the fields MetaMask / Etherscan surface in the paper's Fig. 5:
    status, gas used, effective gas price and the resulting fee, plus the
    created contract address (for deployments) and emitted event logs.
    """

    transaction_hash: str
    sender: Address
    to: Optional[Address]
    status: bool
    gas_used: int
    gas_price: int
    block_number: int = 0
    block_hash: str = ""
    transaction_index: int = 0
    contract_address: Optional[Address] = None
    logs: List[EventLog] = field(default_factory=list)
    return_value: Any = None
    revert_reason: Optional[str] = None
    cumulative_gas_used: int = 0

    @property
    def fee_wei(self) -> int:
        """Total fee paid in wei (``gas_used * gas_price``)."""
        return self.gas_used * self.gas_price

    def to_dict(self) -> dict:
        """JSON-friendly representation (as returned by the node API)."""
        return {
            "transaction_hash": self.transaction_hash,
            "from": str(self.sender),
            "to": str(self.to) if self.to is not None else None,
            "status": int(self.status),
            "gas_used": self.gas_used,
            "gas_price": self.gas_price,
            "fee_wei": self.fee_wei,
            "block_number": self.block_number,
            "block_hash": self.block_hash,
            "transaction_index": self.transaction_index,
            "contract_address": str(self.contract_address) if self.contract_address else None,
            "logs": [log.to_dict() for log in self.logs],
            "return_value": self.return_value,
            "revert_reason": self.revert_reason,
            "cumulative_gas_used": self.cumulative_gas_used,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TransactionReceipt":
        """Reconstruct a receipt from :meth:`to_dict` output.

        Used by the JSON-RPC client so that callers of
        ``eth_getTransactionReceipt`` get back the same object the node-level
        API returns, including ``return_value`` and fee accounting.
        """
        return cls(
            transaction_hash=payload["transaction_hash"],
            sender=Address(payload["from"]),
            to=Address(payload["to"]) if payload.get("to") else None,
            status=bool(payload["status"]),
            gas_used=int(payload["gas_used"]),
            gas_price=int(payload["gas_price"]),
            block_number=int(payload.get("block_number", 0)),
            block_hash=payload.get("block_hash", ""),
            transaction_index=int(payload.get("transaction_index", 0)),
            contract_address=(
                Address(payload["contract_address"])
                if payload.get("contract_address")
                else None
            ),
            logs=[EventLog.from_dict(log) for log in payload.get("logs", [])],
            return_value=payload.get("return_value"),
            revert_reason=payload.get("revert_reason"),
            cumulative_gas_used=int(payload.get("cumulative_gas_used", 0)),
        )
