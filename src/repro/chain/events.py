"""Event logs emitted by contracts and filters over them.

Contracts emit events (``CidUploaded``, ``PaymentSent`` ...) that end up in
transaction receipts and can be filtered by address, name and block range --
the same interaction pattern a web3.py client uses to watch the CidStorage
contract for newly registered models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.chain.account import Address


@dataclass(frozen=True)
class EventLog:
    """A single emitted event.

    Attributes
    ----------
    address:
        Contract that emitted the event.
    name:
        Event name (e.g. ``"CidUploaded"``).
    args:
        Event arguments by name.
    block_number / transaction_hash / log_index:
        Position of the log on the chain; filled in by the executor.
    """

    address: Address
    name: str
    args: Dict[str, Any]
    block_number: int = 0
    transaction_hash: str = ""
    log_index: int = 0

    def __post_init__(self) -> None:
        # One key order wherever the log was built -- emitted live, or read
        # back from key-sorted canonical storage -- so a recovered chain
        # serves the reply bytes the live one did.
        object.__setattr__(self, "args", dict(sorted(self.args.items())))

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "address": str(self.address),
            "event": self.name,
            "args": dict(self.args),
            "block_number": self.block_number,
            "transaction_hash": self.transaction_hash,
            "log_index": self.log_index,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "EventLog":
        """Reconstruct a log from :meth:`to_dict` output (RPC round-trips)."""
        return cls(
            address=Address(payload["address"]),
            name=payload["event"],
            args=dict(payload.get("args", {})),
            block_number=int(payload.get("block_number", 0)),
            transaction_hash=payload.get("transaction_hash", ""),
            log_index=int(payload.get("log_index", 0)),
        )


@dataclass
class LogFilter:
    """Criteria for selecting event logs.

    ``None`` fields match anything; ``from_block``/``to_block`` are inclusive.
    """

    address: Optional[Address] = None
    event_name: Optional[str] = None
    from_block: int = 0
    to_block: Optional[int] = None
    arg_filters: Dict[str, Any] = field(default_factory=dict)

    def matches(self, log: EventLog) -> bool:
        """Whether ``log`` satisfies every criterion of this filter."""
        if self.address is not None and log.address != self.address:
            return False
        if self.event_name is not None and log.name != self.event_name:
            return False
        if log.block_number < self.from_block:
            return False
        if self.to_block is not None and log.block_number > self.to_block:
            return False
        for key, expected in self.arg_filters.items():
            if log.args.get(key) != expected:
                return False
        return True

    def apply(self, logs: Iterable[EventLog]) -> List[EventLog]:
        """Return the logs that match, preserving order."""
        return [log for log in logs if self.matches(log)]


def parse_cursor(cursor: Optional[str], what: str = "log") -> int:
    """Decode a pagination cursor into a stream position (0 when ``None``).

    Shared by the chain's log pagination and the explorer's record
    pagination so the cursor format lives in exactly one place.
    """
    if cursor is None:
        return 0
    try:
        position = int(cursor)
    except (TypeError, ValueError):
        raise ValueError(f"malformed {what} cursor {cursor!r}") from None
    if position < 0:
        raise ValueError(f"malformed {what} cursor {cursor!r}")
    return position


@dataclass(frozen=True)
class LogPage:
    """One page of a paginated log query.

    ``next_cursor`` is an opaque token to pass back for the next page, or
    ``None`` when the query is exhausted.  Cursors stay valid indefinitely
    because the canonical log stream is append-only.
    """

    logs: List[EventLog]
    next_cursor: Optional[str] = None

    def __iter__(self):
        return iter(self.logs)

    def __len__(self) -> int:
        return len(self.logs)

    def to_dict(self) -> dict:
        """JSON-friendly representation (the ``eth_getLogs`` page shape)."""
        return {
            "logs": [log.to_dict() for log in self.logs],
            "next_cursor": self.next_cursor,
        }
