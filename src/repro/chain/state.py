"""World state: the mapping from addresses to accounts, with snapshots.

The state supports nested snapshot/revert so that a reverted contract call
(``require`` failure, out-of-gas) rolls back every balance change, nonce
bump and storage write it made, exactly as the EVM does.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.errors import InsufficientFundsError
from repro.chain.account import Account, Address


class WorldState:
    """Mutable account state keyed by address."""

    def __init__(self) -> None:
        self._accounts: Dict[str, Account] = {}
        self._snapshots: List[Dict[str, Account]] = []

    # -- account access -----------------------------------------------------

    def get_account(self, address: Address | str) -> Account:
        """Return the account at ``address``, creating an empty one if absent."""
        addr = Address(address)
        key = addr.lower
        if key not in self._accounts:
            self._accounts[key] = Account(address=addr)
        return self._accounts[key]

    def accounts(self) -> Iterator[Account]:
        """Iterate over all known accounts."""
        return iter(list(self._accounts.values()))

    def load_account(self, account: Account) -> None:
        """Install a fully formed account record (snapshot restoration)."""
        self._accounts[account.address.lower] = account

    # -- balances -----------------------------------------------------------

    def balance_of(self, address: Address | str) -> int:
        """Balance in wei (0 for unknown accounts)."""
        key = Address(address).lower
        account = self._accounts.get(key)
        return account.balance if account else 0

    def credit(self, address: Address | str, amount: int) -> None:
        """Add ``amount`` wei to an account balance."""
        if amount < 0:
            raise ValueError(f"credit amount must be non-negative: {amount}")
        self.get_account(address).balance += amount

    def debit(self, address: Address | str, amount: int) -> None:
        """Remove ``amount`` wei from an account balance.

        Raises
        ------
        InsufficientFundsError
            If the balance is smaller than ``amount``.
        """
        if amount < 0:
            raise ValueError(f"debit amount must be non-negative: {amount}")
        account = self.get_account(address)
        if account.balance < amount:
            raise InsufficientFundsError(
                f"{address} has {account.balance} wei, needs {amount}"
            )
        account.balance -= amount

    def transfer(self, sender: Address | str, recipient: Address | str, amount: int) -> None:
        """Move ``amount`` wei from ``sender`` to ``recipient`` atomically."""
        self.debit(sender, amount)
        self.credit(recipient, amount)

    # -- nonces -------------------------------------------------------------

    def nonce_of(self, address: Address | str) -> int:
        """Current transaction count of an account."""
        key = Address(address).lower
        account = self._accounts.get(key)
        return account.nonce if account else 0

    def increment_nonce(self, address: Address | str) -> int:
        """Bump and return the new nonce."""
        account = self.get_account(address)
        account.nonce += 1
        return account.nonce

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> int:
        """Take a snapshot; returns an identifier for :meth:`revert`."""
        frame = {key: account.copy() for key, account in self._accounts.items()}
        self._snapshots.append(frame)
        return len(self._snapshots) - 1

    def revert(self, snapshot_id: int) -> None:
        """Restore the state captured by ``snapshot_id`` and drop later ones."""
        if not 0 <= snapshot_id < len(self._snapshots):
            raise ValueError(f"unknown snapshot id {snapshot_id}")
        self._accounts = self._snapshots[snapshot_id]
        del self._snapshots[snapshot_id:]

    def commit(self, snapshot_id: int) -> None:
        """Discard the snapshot (changes since it are kept)."""
        if not 0 <= snapshot_id < len(self._snapshots):
            raise ValueError(f"unknown snapshot id {snapshot_id}")
        del self._snapshots[snapshot_id:]

    # -- reporting ----------------------------------------------------------

    def total_supply(self) -> int:
        """Sum of all balances (conserved by execution except for fees/mint)."""
        return sum(account.balance for account in self._accounts.values())

    def to_dict(self) -> dict:
        """JSON-friendly dump of account summaries."""
        return {key: account.to_dict() for key, account in sorted(self._accounts.items())}
