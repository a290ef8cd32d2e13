"""World state: the mapping from addresses to accounts, with snapshots.

The state supports nested snapshot/revert so that a reverted contract call
(``require`` failure, out-of-gas) rolls back every balance change, nonce
bump, account creation, contract install and storage write it made, exactly
as the EVM does.

Snapshots are marks in an undo journal.  While one is open, every write
appends the value it replaces, so :meth:`WorldState.snapshot` costs the same
at any number of accounts and :meth:`WorldState.revert` costs what was
written since the mark.  Writes made with no snapshot open are not
journaled, and the journal empties when the outermost snapshot closes.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

from repro.errors import InsufficientFundsError
from repro.chain.account import Account, Address

#: The prior value of a dictionary key that was not there.
_ABSENT = object()


class WorldState:
    """Mutable account state keyed by address."""

    def __init__(self) -> None:
        self._accounts: Dict[str, Account] = {}
        #: Undo entries ``(target, name, prior)`` since the outermost open
        #: snapshot, oldest first: ``target`` is an account (``name`` an
        #: attribute) or a dictionary (``name`` a key).
        self._journal: List[Tuple[Any, str, Any]] = []
        #: The journal's length when each open snapshot was taken.
        self._marks: List[int] = []

    # -- journaled writes ---------------------------------------------------

    def _assign(self, account: Account, name: str, value: Any) -> None:
        """Set ``account.<name>``, journaling the value it replaces."""
        if self._marks:
            self._journal.append((account, name, getattr(account, name)))
        setattr(account, name, value)

    def _put(self, mapping: Dict[str, Any], key: str, value: Any) -> None:
        """Set ``mapping[key]``, journaling the value it replaces."""
        if self._marks:
            self._journal.append((mapping, key, mapping.get(key, _ABSENT)))
        mapping[key] = value

    # -- account access -----------------------------------------------------

    def get_account(self, address: Address | str) -> Account:
        """Return the account at ``address``, creating an empty one if absent."""
        addr = Address(address)
        key = addr.lower
        account = self._accounts.get(key)
        if account is None:
            account = Account(address=addr)
            self._put(self._accounts, key, account)
        return account

    def accounts(self) -> Iterator[Account]:
        """Iterate over all known accounts."""
        return iter(list(self._accounts.values()))

    def load_account(self, account: Account) -> None:
        """Install a fully formed account record (snapshot restoration)."""
        self._put(self._accounts, account.address.lower, account)

    def install_contract(self, address: Address | str, contract: Any, code_size: int) -> None:
        """Deploy ``contract`` (with its code size) at ``address``."""
        account = self.get_account(address)
        self._assign(account, "contract", contract)
        self._assign(account, "code_size", code_size)

    def set_storage(self, address: Address | str, slot: str, value: Any) -> None:
        """Write ``value`` to storage slot ``slot`` of the account at ``address``."""
        self._put(self.get_account(address).storage, slot, value)

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
        account = self.get_account(address)
        self._assign(account, "balance", account.balance + amount)

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
        self._assign(account, "balance", account.balance - amount)

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
        self._assign(account, "nonce", account.nonce + 1)
        return account.nonce

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> int:
        """Take a snapshot; returns an identifier for :meth:`revert`."""
        self._marks.append(len(self._journal))
        return len(self._marks) - 1

    def _mark(self, snapshot_id: int) -> int:
        if not 0 <= snapshot_id < len(self._marks):
            raise ValueError(f"unknown snapshot id {snapshot_id}")
        return self._marks[snapshot_id]

    def revert(self, snapshot_id: int) -> None:
        """Restore the state captured by ``snapshot_id`` and drop later ones."""
        mark = self._mark(snapshot_id)
        journal = self._journal
        while len(journal) > mark:
            target, name, prior = journal.pop()
            if isinstance(target, Account):
                setattr(target, name, prior)
            elif prior is _ABSENT:
                del target[name]
            else:
                target[name] = prior
        del self._marks[snapshot_id:]

    def commit(self, snapshot_id: int) -> None:
        """Discard the snapshot (changes since it are kept)."""
        self._mark(snapshot_id)
        del self._marks[snapshot_id:]
        if not self._marks:
            self._journal.clear()

    # -- reporting ----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly dump of account summaries."""
        return {key: account.to_dict() for key, account in sorted(self._accounts.items())}
