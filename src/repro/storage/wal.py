"""The write-ahead log: the ordered truth of everything the chain did.

Every durable chain mutation is appended to one totally ordered stream of
typed entries *before* (memory backend) or *as* it takes effect:

========== ================================================================
``mint``   a faucet credit (the only state change outside a transaction)
``tx``     a transaction accepted into the mempool (full signed payload)
``block``  a produced block: header + full transactions + receipts
========== ================================================================

Crash recovery replays this stream: mints are re-credited, blocks are
re-executed (and their recomputed hashes checked against the recorded
headers), and ``tx`` entries that never made it into a block are re-queued
into the mempool.  Snapshots bound the replay work: once a chain-state
snapshot exists at height *H*, :meth:`WriteAheadLog.compact` archives the
block entries up to *H* into cold blob storage and truncates everything the
snapshot already captures, keeping only still-pending ``tx`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List

from repro.errors import StorageError

#: Blob namespace where compaction archives full block records.
BLOCK_ARCHIVE_NAMESPACE = "blocks"

ENTRY_KINDS = ("mint", "tx", "block")


@dataclass(frozen=True)
class WalEntry:
    """One decoded write-ahead-log entry."""

    seq: int
    kind: str
    payload: Dict[str, Any]


def block_archive_key(number: int) -> str:
    """Blob key for an archived block (fixed width keeps keys sortable)."""
    return f"block-{int(number):012d}"


class WriteAheadLog:
    """Typed, checksummed, truncatable log over one backend topic."""

    #: The backend topic the log lives on.
    topic = "chain"

    def __init__(self, backend: Any) -> None:
        self.backend = backend
        #: Compaction epoch: bumped by every :meth:`compact` so tailing
        #: readers (the analytics feeder) know entries may have moved into
        #: the block archive since their last read and can reconcile.
        self.compactions = 0
        #: Live entries per kind, from the one scan at open, then kept up by
        #: :meth:`append` and :meth:`compact`: reading them decodes nothing.
        self._live = {kind: 0 for kind in ENTRY_KINDS}
        for entry in self.entries():
            self._live[entry.kind] += 1
        #: Entries appended per kind, seeded by what the log holds when opened:
        #: never falls at a compaction and costs a ``/metrics`` scrape no replay.
        self.appended = dict(self._live)

    # -- writing ---------------------------------------------------------------

    def append(self, kind: str, payload: Dict[str, Any]) -> int:
        """Append one entry; returns its sequence number."""
        if kind not in ENTRY_KINDS:
            raise StorageError(f"unknown WAL entry kind {kind!r}")
        seq = self.backend.append(self.topic, {"kind": kind, "payload": payload})
        self._live[kind] += 1
        self.appended[kind] += 1
        return seq

    # -- reading ---------------------------------------------------------------

    def entries(self, start: int = 0) -> Iterator[WalEntry]:
        """Yield entries with ``seq >= start`` in append order."""
        for seq, record in self.backend.records(self.topic, start=start):
            yield _entry(seq, record)

    def last_seq(self) -> int:
        """Sequence number of the most recently appended entry (-1 if none).

        Unlike the last *retained* entry, this survives truncation: sequence
        numbers are never reused, so the value is the high-water mark of
        everything ever logged.
        """
        return self.backend.next_seq(self.topic) - 1

    def counts_by_kind(self) -> Dict[str, int]:
        """How many live entries of each kind the log currently holds."""
        return dict(self._live)

    # -- compaction -------------------------------------------------------------

    def compact(
        self,
        upto_seq: int,
        is_pending_tx: Callable[[Dict[str, Any]], bool],
    ) -> Dict[str, int]:
        """Fold every entry with ``seq <= upto_seq`` into cold storage.

        Block entries are archived to the :data:`BLOCK_ARCHIVE_NAMESPACE`
        blob namespace (recovery reads chain history from there), mint
        entries are dropped (their effect lives in the snapshot state), and
        ``tx`` entries survive only while ``is_pending_tx(payload)`` says the
        transaction has not been included yet.

        Returns counters: ``archived_blocks``, ``dropped`` and ``retained``.
        The decisions are made inside the backend's one pass over the log.
        """
        archived = 0
        retained_pending = 0
        dropped_by_kind = {kind: 0 for kind in ENTRY_KINDS}

        def keep(seq: int, record: Dict[str, Any]) -> bool:
            nonlocal archived, retained_pending
            entry = _entry(seq, record)
            if entry.kind == "block":
                number = int(entry.payload["header"]["number"])
                self.backend.put_blob(
                    BLOCK_ARCHIVE_NAMESPACE,
                    block_archive_key(number),
                    _encode_record(entry.payload),
                )
                archived += 1
            elif entry.kind == "tx" and is_pending_tx(entry.payload):
                retained_pending += 1
                return True
            dropped_by_kind[entry.kind] += 1
            return False

        dropped = self.backend.truncate(self.topic, upto_seq, keep)
        for kind, count in dropped_by_kind.items():
            self._live[kind] -= count
        self.backend.sync()
        self.compactions += 1
        return {
            "archived_blocks": archived,
            "dropped": dropped,
            "retained_pending_txs": retained_pending,
        }

    # -- archive access ----------------------------------------------------------

    def archived_block_numbers(self) -> List[int]:
        """Heights of every block archived by past compactions, ascending."""
        numbers = []
        for key in self.backend.blob_keys(BLOCK_ARCHIVE_NAMESPACE):
            if key.startswith("block-"):
                numbers.append(int(key[len("block-"):]))
        return sorted(numbers)

    def archived_block(self, number: int) -> Dict[str, Any]:
        """Fetch one archived block record by height."""
        return _decode_record(
            self.backend.get_blob(BLOCK_ARCHIVE_NAMESPACE, block_archive_key(number))
        )


def _entry(seq: int, record: Dict[str, Any]) -> WalEntry:
    kind = record.get("kind")
    if kind not in ENTRY_KINDS:
        raise StorageError(f"WAL entry {seq} has unknown kind {kind!r}")
    return WalEntry(seq=seq, kind=kind, payload=record.get("payload", {}))


def _encode_record(payload: Dict[str, Any]) -> bytes:
    from repro.utils.serialization import canonical_dumps

    return canonical_dumps(payload).encode("utf-8")


def _decode_record(data: bytes) -> Dict[str, Any]:
    from repro.utils.serialization import canonical_loads

    return canonical_loads(data.decode("utf-8"))
