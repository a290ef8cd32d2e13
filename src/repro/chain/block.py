"""Blocks and block headers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, List, Optional

from repro.chain.account import Address
from repro.chain.receipts import TransactionReceipt
from repro.chain.transaction import Transaction
from repro.utils.encoding import to_hex
from repro.utils.hashing import hash_json


@dataclass
class BlockHeader:
    """Header fields of a block (the part that is hashed and linked)."""

    number: int
    parent_hash: str
    timestamp: float
    proposer: Address
    gas_used: int = 0
    gas_limit: int = 30_000_000
    transactions_root: str = "0x" + "00" * 32
    receipts_root: str = "0x" + "00" * 32
    extra_data: str = ""

    # Class-level default (ClassVar: not a dataclass field) so the memo exists
    # before __init__ assigns the fields; instances shadow it.
    _hash_cache: ClassVar[Optional[str]] = None

    def __setattr__(self, name: str, value: Any) -> None:
        # Every field is hashed: assigning any of them drops the hash memo.
        object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash_cache", None)

    @property
    def hash(self) -> str:
        """Hex block hash over the canonical header fields (memoised)."""
        block_hash = self._hash_cache
        if block_hash is None:
            block_hash = to_hex(hash_json({
                "number": self.number,
                "parent_hash": self.parent_hash,
                "timestamp": self.timestamp,
                "proposer": str(self.proposer),
                "gas_used": self.gas_used,
                "gas_limit": self.gas_limit,
                "transactions_root": self.transactions_root,
                "receipts_root": self.receipts_root,
                "extra_data": self.extra_data,
            }))
            object.__setattr__(self, "_hash_cache", block_hash)
        return block_hash

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "hash": self.hash,
            "number": self.number,
            "parent_hash": self.parent_hash,
            "timestamp": self.timestamp,
            "proposer": str(self.proposer),
            "gas_used": self.gas_used,
            "gas_limit": self.gas_limit,
            "transactions_root": self.transactions_root,
            "receipts_root": self.receipts_root,
            "extra_data": self.extra_data,
        }


@dataclass
class Block:
    """A block: header plus ordered transactions and their receipts."""

    header: BlockHeader
    transactions: List[Transaction] = field(default_factory=list)
    receipts: List[TransactionReceipt] = field(default_factory=list)

    @property
    def hash(self) -> str:
        """The header hash (blocks are identified by it)."""
        return self.header.hash

    @property
    def number(self) -> int:
        """Block height."""
        return self.header.number

    @property
    def timestamp(self) -> float:
        """Block timestamp (simulated seconds)."""
        return self.header.timestamp

    @property
    def gas_used(self) -> int:
        """Total gas consumed by the block's transactions."""
        return self.header.gas_used

    def transaction_hashes(self) -> List[str]:
        """Hex hashes of the included transactions, in order."""
        return [tx.hash_hex for tx in self.transactions]

    def to_dict(self, full_transactions: bool = False) -> dict:
        """JSON-friendly representation: transactions by hash, or in full."""
        return {
            "header": self.header.to_dict(),
            "transactions": ([tx.to_dict() for tx in self.transactions]
                             if full_transactions else self.transaction_hashes()),
            "receipts": [receipt.to_dict() for receipt in self.receipts],
        }

    def to_record(self) -> dict:
        """Self-contained persistence record: :meth:`to_dict` with *full*
        transactions, so the storage layer can re-execute the block during
        crash recovery."""
        return self.to_dict(full_transactions=True)


def compute_transactions_root(transactions: List[Transaction]) -> str:
    """A Merkle-ish commitment to the ordered transaction list."""
    return to_hex(hash_json([tx.hash_hex for tx in transactions]))


def compute_receipts_root(receipts: List[TransactionReceipt]) -> str:
    """A commitment to the ordered receipt list."""
    return to_hex(hash_json([
        {"tx": r.transaction_hash, "status": r.status, "gas": r.gas_used} for r in receipts
    ]))


def block_from_record(record: dict) -> Block:
    """Rebuild a :class:`Block` from :meth:`Block.to_record` output.

    The header hash is always recomputed from the reconstructed fields;
    callers compare it to the recorded hash to detect tampering or drift.
    """
    header_payload = record["header"]
    header = BlockHeader(
        number=int(header_payload["number"]),
        parent_hash=header_payload["parent_hash"],
        timestamp=float(header_payload["timestamp"]),
        proposer=Address(header_payload["proposer"]),
        gas_used=int(header_payload.get("gas_used", 0)),
        gas_limit=int(header_payload.get("gas_limit", 30_000_000)),
        transactions_root=header_payload.get("transactions_root", "0x" + "00" * 32),
        receipts_root=header_payload.get("receipts_root", "0x" + "00" * 32),
        extra_data=header_payload.get("extra_data", ""),
    )
    return Block(
        header=header,
        transactions=[Transaction.from_dict(p) for p in record.get("transactions", [])],
        receipts=[TransactionReceipt.from_dict(p) for p in record.get("receipts", [])],
    )


def make_genesis_block(timestamp: float = 0.0) -> Block:
    """Create the genesis block (height 0, zero parent hash, zero proposer)."""
    header = BlockHeader(
        number=0,
        parent_hash="0x" + "00" * 32,
        timestamp=timestamp,
        proposer=Address("0x" + "00" * 20),
        extra_data="oflw3-simulated-sepolia-genesis",
    )
    return Block(header=header)
