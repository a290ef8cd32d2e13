"""Addresses and account records held in the world state."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.errors import InvalidAddressError
from repro.chain.keys import ADDRESS_BYTES, to_checksum_address
from repro.utils.cache import LRUCache

#: Checksum interning cache: every state read (``balance_of``, ``nonce_of``,
#: ``get_account``) normalizes its address argument, and the EIP-55 checksum
#: costs a keccak per computation.  Fronted by the same shared
#: :class:`~repro.utils.cache.LRUCache` the storage engine's read paths use
#: (it lives in ``repro.utils`` precisely so the chain can use it without
#: inverting the storage -> chain dependency).
_checksum_cache = LRUCache(capacity=65536)


def _interned_checksum(body: str) -> str:
    """Checksum ``0x + body`` through the shared LRU (validates on miss).

    Keyed on the case-folded body: callers pass the same address as both
    lowercase state keys and checksummed display strings, and the checksum
    only depends on the hex digits, so case-folding makes those share one
    cache slot instead of missing past each other.
    """
    key = body.lower()
    cached = _checksum_cache.get(key)
    if cached is None:
        cached = to_checksum_address("0x" + body)
        _checksum_cache.put(key, cached)
    return cached


def checksum_cache() -> LRUCache:
    """The address-interning cache itself, for observability registration.

    ``repro.obs`` samples it through the canonical :meth:`LRUCache.stats`
    spelling (the same one the storage engine's cache uses).
    """
    return _checksum_cache


class Address:
    """A validated, checksummed 20-byte account address.

    Instances are immutable, hashable and compare case-insensitively, so they
    can be used directly as dictionary keys in the world state.  ``str()``
    returns the EIP-55 checksummed representation used in reports (Table 1).
    """

    __slots__ = ("_checksummed", "_lower")

    def __init__(self, value: "Address | str") -> None:
        if isinstance(value, Address):
            self._checksummed = value._checksummed
            self._lower = value._lower
            return
        if not isinstance(value, str):
            raise InvalidAddressError(f"address must be a string, got {type(value).__name__}")
        body = value[2:] if value.startswith(("0x", "0X")) else value
        if len(body) != ADDRESS_BYTES * 2:
            raise InvalidAddressError(f"address must encode {ADDRESS_BYTES} bytes: {value!r}")
        try:
            self._checksummed = _interned_checksum(body)
        except ValueError as exc:
            raise InvalidAddressError(str(exc)) from exc
        self._lower = self._checksummed.lower()

    def __str__(self) -> str:
        return self._checksummed

    def __repr__(self) -> str:
        return f"Address({self._checksummed!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Address):
            return self._lower == other._lower
        if isinstance(other, str):
            try:
                return self == Address(other)
            except InvalidAddressError:
                return False
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._lower)

    @property
    def checksummed(self) -> str:
        """The EIP-55 checksummed string form."""
        return self._checksummed

    @property
    def lower(self) -> str:
        """The all-lowercase string form (canonical dictionary key)."""
        return self._lower


ZERO_ADDRESS = Address("0x" + "00" * ADDRESS_BYTES)


@dataclass
class Account:
    """State of a single account: balance (wei), nonce, optional contract.

    Externally-owned accounts have ``contract is None``; contract accounts
    carry the deployed contract object (see :mod:`repro.contracts.framework`)
    plus its storage dictionary and code size used for deposit-gas pricing.
    """

    address: Address
    balance: int = 0
    nonce: int = 0
    contract: Optional[Any] = None
    code_size: int = 0
    storage: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_contract(self) -> bool:
        """Whether a contract is deployed at this account."""
        return self.contract is not None

    def copy(self) -> "Account":
        """Shallow-copy the account for snapshotting.

        Contract objects hold their persistent data exclusively in
        ``storage`` (enforced by the contract framework), so a shallow copy
        of the object reference plus a copied storage dict is a faithful
        snapshot.
        """
        return Account(
            address=self.address,
            balance=self.balance,
            nonce=self.nonce,
            contract=self.contract,
            code_size=self.code_size,
            storage=dict(self.storage),
        )

    def to_dict(self) -> dict:
        """JSON-friendly summary (omits the live contract object)."""
        return {
            "address": str(self.address),
            "balance": self.balance,
            "nonce": self.nonce,
            "is_contract": self.is_contract,
            "code_size": self.code_size,
            "storage_slots": len(self.storage),
        }
