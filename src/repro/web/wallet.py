"""A MetaMask-like wallet simulator.

The demo's owners and buyer interact with the blockchain exclusively through
MetaMask: the DApp proposes a transaction, MetaMask shows a confirmation
dialog with the estimated gas fee, the user approves, and the signed
transaction is broadcast.  :class:`MetaMaskWallet` reproduces that flow:

* it holds the account's key pair and talks to the chain exclusively through
  a :class:`~repro.rpc.client.MarketplaceClient` (the JSON-RPC boundary a
  real MetaMask crosses on every operation);
* :meth:`preview` estimates gas and renders the "confirmation screen" data
  (Fig. 5a of the paper);
* a configurable *confirmation policy* stands in for the human clicking
  "Confirm" or "Reject";
* approved transactions are signed, serialized and broadcast with
  ``eth_sendRawTransaction``, then awaited by polling
  ``eth_getTransactionReceipt``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, TYPE_CHECKING

from repro.errors import WalletError
from repro.chain.account import Address
from repro.chain.keys import KeyPair
from repro.chain.node import EthereumNode
from repro.chain.receipts import TransactionReceipt
from repro.chain.transaction import Transaction, encode_call, encode_create
from repro.utils.units import format_ether, gwei_to_wei

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.rpc.client import MarketplaceClient

ConfirmationPolicy = Callable[["TransactionPreview"], bool]


def approve_all(_preview: "TransactionPreview") -> bool:
    """Confirmation policy that always clicks "Confirm"."""
    return True


def reject_all(_preview: "TransactionPreview") -> bool:
    """Confirmation policy that always clicks "Reject"."""
    return False


@dataclass
class TransactionPreview:
    """What the MetaMask confirmation screen shows before signing."""

    description: str
    sender: str
    to: Optional[str]
    value_wei: int
    estimated_gas: int
    gas_price: int

    @property
    def max_fee_wei(self) -> int:
        """Maximum fee the transaction can cost."""
        return self.estimated_gas * self.gas_price

    @property
    def total_wei(self) -> int:
        """Value plus maximum fee (the number the user squints at)."""
        return self.value_wei + self.max_fee_wei

    def to_dict(self) -> dict:
        """JSON-friendly representation (used by the DApp UI layer)."""
        return {
            "description": self.description,
            "from": self.sender,
            "to": self.to,
            "value_eth": format_ether(self.value_wei),
            "estimated_gas": self.estimated_gas,
            "gas_price_wei": self.gas_price,
            "max_fee_eth": format_ether(self.max_fee_wei),
            "total_eth": format_ether(self.total_wei),
        }


@dataclass
class WalletActivity:
    """One signed-and-sent transaction, as listed in MetaMask's activity tab."""

    description: str
    transaction_hash: str
    receipt: Optional[TransactionReceipt] = None


class MetaMaskWallet:
    """Holds one account and mediates every on-chain interaction for it."""

    def __init__(
        self,
        keypair: KeyPair,
        node: EthereumNode,
        gas_price_wei: Optional[int] = None,
        confirmation_policy: ConfirmationPolicy = approve_all,
        rpc: Optional["MarketplaceClient"] = None,
    ) -> None:
        self.keypair = keypair
        #: Kept for infrastructure access (the simulated clock, tests); all
        #: chain *interaction* goes through :attr:`rpc`.
        self.node = node
        if rpc is None:
            # Imported lazily: repro.rpc imports the web package at module
            # load, so a module-level import here would cycle.
            from repro.rpc.client import MarketplaceClient

            rpc = MarketplaceClient.for_node(node)
        self.rpc = rpc
        self.gas_price_wei = gas_price_wei if gas_price_wei is not None else gwei_to_wei(1)
        self.confirmation_policy = confirmation_policy
        self.activity: List[WalletActivity] = []

    # -- account info -----------------------------------------------------------

    @property
    def address(self) -> str:
        """The wallet's checksummed address."""
        return self.keypair.address

    def balance_wei(self) -> int:
        """Current on-chain balance in wei (an ``eth_getBalance`` call)."""
        return self.rpc.eth.get_balance(self.address)

    def balance_eth(self) -> str:
        """Current balance formatted in ETH."""
        return format_ether(self.balance_wei())

    # -- transaction flow ----------------------------------------------------------

    def _build_transaction(self, to: Optional[str], value: int, data: bytes,
                           gas_limit: int) -> Transaction:
        """Assemble an unsigned transaction with the wallet's fee settings."""
        return Transaction(
            sender=Address(self.address),
            to=Address(to) if to is not None else None,
            value=value,
            data=data,
            nonce=self.rpc.eth.get_transaction_count(self.address, "pending"),
            gas_limit=gas_limit,
            gas_price=self.gas_price_wei,
        )

    def preview(self, description: str, to: Optional[str], value: int = 0,
                data: bytes = b"", gas_limit: int = 3_000_000) -> TransactionPreview:
        """Estimate gas and build the confirmation-screen preview."""
        tx = self._build_transaction(to, value, data, gas_limit)
        estimated = self.rpc.eth.estimate_gas(tx)
        return TransactionPreview(
            description=description,
            sender=self.address,
            to=to,
            value_wei=value,
            estimated_gas=estimated,
            gas_price=self.gas_price_wei,
        )

    def _confirm_and_send(self, description: str, to: Optional[str], value: int,
                          data: bytes) -> TransactionReceipt:
        """Run the preview -> confirm -> sign -> broadcast -> wait pipeline."""
        preview = self.preview(description, to, value, data)
        if not self.confirmation_policy(preview):
            raise WalletError(f"user rejected the transaction: {description}")
        gas_limit = max(int(preview.estimated_gas * 1.2), 21_000)
        tx = self._build_transaction(to, value, data, gas_limit)
        tx.sign(self.keypair)
        tx_hash = self.rpc.eth.send_transaction(tx)
        activity = WalletActivity(description=description, transaction_hash=tx_hash)
        self.activity.append(activity)
        receipt = self.rpc.eth.wait_for_receipt(tx_hash)
        activity.receipt = receipt
        return receipt

    # -- public operations (what DApp buttons call) -----------------------------------

    def send_ether(self, to: str, value_wei: int,
                   description: str = "Send ETH") -> TransactionReceipt:
        """Plain value transfer."""
        return self._confirm_and_send(description, to, value_wei, b"")

    def deploy_contract(self, contract_name: str, args: Optional[List[Any]] = None,
                        value_wei: int = 0,
                        description: Optional[str] = None) -> TransactionReceipt:
        """Contract deployment (Fig. 5b)."""
        data = encode_create(contract_name, args or [])
        return self._confirm_and_send(
            description or f"Deploy {contract_name}", None, value_wei, data
        )

    def call_contract(self, contract_address: str, method: str,
                      args: Optional[List[Any]] = None, value_wei: int = 0,
                      description: Optional[str] = None) -> TransactionReceipt:
        """State-changing contract interaction (Fig. 5c / 5d)."""
        data = encode_call(method, args or [])
        return self._confirm_and_send(
            description or f"Call {method}", contract_address, value_wei, data
        )

    def read_contract(self, contract_address: str, method: str,
                      args: Optional[List[Any]] = None) -> Any:
        """Gas-free read-only call (Step 5: downloading CIDs)."""
        return self.rpc.eth.call(contract_address, method, args or [], caller=self.address)

    # -- reporting ---------------------------------------------------------------------

    def total_fees_paid_wei(self) -> int:
        """Sum of fees across all confirmed transactions from this wallet."""
        return sum(a.receipt.fee_wei for a in self.activity if a.receipt is not None)

    def activity_summary(self) -> List[dict]:
        """MetaMask-style activity list."""
        return [
            {
                "description": a.description,
                "transaction_hash": a.transaction_hash,
                "status": (a.receipt.status if a.receipt else None),
                "fee_eth": (format_ether(a.receipt.fee_wei) if a.receipt else None),
            }
            for a in self.activity
        ]
