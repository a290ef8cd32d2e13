"""Pluggable storage backends: the byte-level seam under the stack.

A :class:`StorageBackend` persists three kinds of data:

* **records** -- ordered, append-only streams of JSON-safe dictionaries
  grouped by *topic* (the write-ahead log lives here).  Every record gets a
  monotonically increasing sequence number that survives truncation, so a
  compacted log keeps stable positions.
* **blobs** -- opaque byte payloads keyed by ``(namespace, key)`` (IPFS
  blocks and chain-state snapshots live here).
* **meta** -- small named JSON documents (chain configuration, snapshot
  pointers).

Two implementations ship: :class:`MemoryBackend` (plain dictionaries, the
seed-identical default) and :class:`LogBackend` (append-only files under a
directory, durable across processes).  Both speak the exact same protocol,
so every layer above -- WAL, snapshots, block stores -- is backend-agnostic.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Protocol, Tuple

from repro.errors import StorageCorruptionError, StorageError
from repro.utils.hashing import keccak256
from repro.utils.serialization import canonical_dumps, canonical_loads, decode_canonical

#: ``truncate``'s choice of which record at or below the bound to keep.
Keep = Callable[[int, Dict[str, Any]], bool]

#: Blob keys matching this pattern are used verbatim as file names; anything
#: else is hashed (see :func:`_blob_filename`).  The leading character may
#: not be a dot: dot-prefixed names are reserved for atomic-write temp files,
#: so a blob file can never collide with another write's temp path.
_SAFE_KEY = re.compile(r"^[A-Za-z0-9_-][A-Za-z0-9._-]{0,127}$")


class StorageBackend(Protocol):
    """What the storage engine requires of any backend implementation."""

    def append(self, topic: str, record: Dict[str, Any]) -> int:
        """Append ``record`` to ``topic``; returns its sequence number."""

    def records(self, topic: str, start: int = 0) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Yield ``(seq, record)`` pairs with ``seq >= start``, in order."""

    def next_seq(self, topic: str) -> int:
        """The sequence number the next append to ``topic`` will receive."""

    def truncate(self, topic: str, upto_seq: int, keep: Optional[Keep] = None) -> int:
        """Drop records with ``seq <= upto_seq``, except those ``keep`` accepts:
        it sees each of them once, in order, as ``keep(seq, record)``.

        Returns the number of records removed.  Sequence numbers of retained
        and future records are unaffected.
        """

    def put_blob(self, namespace: str, key: str, data: bytes) -> None:
        """Store ``data`` under ``(namespace, key)``, replacing any old value."""

    def get_blob(self, namespace: str, key: str) -> bytes:
        """Fetch a blob; raises :class:`StorageError` if absent."""

    def has_blob(self, namespace: str, key: str) -> bool:
        """Whether ``(namespace, key)`` holds a blob."""

    def delete_blob(self, namespace: str, key: str) -> bool:
        """Remove a blob; returns whether it existed."""

    def blob_keys(self, namespace: str) -> List[str]:
        """Sorted keys currently stored in ``namespace``."""

    def blob_bytes(self, namespace: str) -> int:
        """Total payload size of ``namespace`` without reading the payloads."""

    def put_meta(self, key: str, value: Dict[str, Any]) -> None:
        """Store a small named JSON document."""

    def get_meta(self, key: str) -> Optional[Dict[str, Any]]:
        """Fetch a meta document, or ``None`` if absent."""

    def sync(self) -> None:
        """Flush buffered writes to durable media (no-op for memory)."""

    def close(self) -> None:
        """Release file handles; the backend must not be used afterwards."""

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly summary (backend kind, sizes) for ``storage inspect``."""


class MemoryBackend:
    """In-process backend: every byte lives in Python dictionaries.

    This is the default everywhere, and it is deliberately invisible: writes
    touch neither the simulated clock nor any RNG, so a marketplace run with
    a ``MemoryBackend`` attached is bit-for-bit identical to one with no
    storage at all.
    """

    kind = "memory"

    def __init__(self) -> None:
        self._topics: Dict[str, List[Tuple[int, Dict[str, Any]]]] = {}
        self._next_seq: Dict[str, int] = {}
        self._blobs: Dict[str, Dict[str, bytes]] = {}
        self._meta: Dict[str, Dict[str, Any]] = {}
        self._closed = False

    # -- records -------------------------------------------------------------

    def append(self, topic: str, record: Dict[str, Any]) -> int:
        self._check_open()
        seq = self._next_seq.get(topic, 0)
        self._next_seq[topic] = seq + 1
        # Round-trip through canonical JSON so the caller cannot later mutate
        # a "persisted" record in place -- same isolation a file gives.
        self._topics.setdefault(topic, []).append(
            (seq, canonical_loads(canonical_dumps(record)))
        )
        return seq

    def records(self, topic: str, start: int = 0) -> Iterator[Tuple[int, Dict[str, Any]]]:
        for seq, record in list(self._topics.get(topic, [])):
            if seq >= start:
                yield seq, canonical_loads(canonical_dumps(record))

    def next_seq(self, topic: str) -> int:
        return self._next_seq.get(topic, 0)

    def truncate(self, topic: str, upto_seq: int, keep: Optional[Keep] = None) -> int:
        entries = self._topics.get(topic, [])
        retained = [(s, r) for s, r in entries if s > upto_seq or (
            keep is not None and keep(s, canonical_loads(canonical_dumps(r))))]
        removed = len(entries) - len(retained)
        self._topics[topic] = retained
        return removed

    # -- blobs ---------------------------------------------------------------

    def put_blob(self, namespace: str, key: str, data: bytes) -> None:
        self._check_open()
        self._blobs.setdefault(namespace, {})[key] = bytes(data)

    def get_blob(self, namespace: str, key: str) -> bytes:
        try:
            return self._blobs[namespace][key]
        except KeyError:
            raise StorageError(f"no blob {key!r} in namespace {namespace!r}") from None

    def has_blob(self, namespace: str, key: str) -> bool:
        return key in self._blobs.get(namespace, {})

    def delete_blob(self, namespace: str, key: str) -> bool:
        return self._blobs.get(namespace, {}).pop(key, None) is not None

    def blob_keys(self, namespace: str) -> List[str]:
        return sorted(self._blobs.get(namespace, {}))

    def blob_bytes(self, namespace: str) -> int:
        return sum(len(data) for data in self._blobs.get(namespace, {}).values())

    # -- meta ----------------------------------------------------------------

    def put_meta(self, key: str, value: Dict[str, Any]) -> None:
        self._check_open()
        self._meta[key] = canonical_loads(canonical_dumps(value))

    def get_meta(self, key: str) -> Optional[Dict[str, Any]]:
        value = self._meta.get(key)
        return canonical_loads(canonical_dumps(value)) if value is not None else None

    # -- lifecycle -----------------------------------------------------------

    def sync(self) -> None:
        self._check_open()

    def close(self) -> None:
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("backend is closed")

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "topics": {
                topic: len(entries) for topic, entries in sorted(self._topics.items())
            },
            "blob_namespaces": {
                namespace: {
                    "blobs": len(blobs),
                    "bytes": sum(len(b) for b in blobs.values()),
                }
                for namespace, blobs in sorted(self._blobs.items())
            },
            "meta_keys": sorted(self._meta),
        }


def _blob_filename(key: str) -> str:
    """File name for a blob key: verbatim when shell-safe, hashed otherwise."""
    if _SAFE_KEY.match(key):
        return key
    return "h" + keccak256(key.encode("utf-8")).hex()


def _encode_line(seq: int, record: Dict[str, Any]) -> str:
    """The one WAL line format: canonical record + truncated keccak checksum.

    Shared by :meth:`LogBackend.append` and :meth:`LogBackend.truncate` so
    the two writers can never drift apart.
    """
    payload = canonical_dumps(record)
    checksum = keccak256(payload.encode("utf-8")).hex()[:16]
    # ``json.dumps`` of the wrapper with sorted keys, spelled out: the
    # payload is already canonical text, so it goes in verbatim.
    return f'{{"checksum":"{checksum}","record":{payload},"seq":{seq}}}'


class LogBackend:
    """Durable backend: append-only record files plus blob/meta files.

    Layout under ``directory``::

        wal/<topic>.log          one JSON line per record:
                                 {"seq": n, "checksum": "...", "record": {...}}
        blobs/<namespace>/<file> raw blob bytes (file name from the key)
        blobs/<namespace>.idx.json   key -> file name index
        meta/<key>.json          meta documents

    Appends go through a per-topic file handle and are flushed to the OS on
    every write (so a ``kill -9`` cannot silently truncate the WAL);
    :meth:`sync` additionally ``fsync``\\ s, and ``fsync=True`` does so per
    append.  Blob *index* files flush lazily -- on :meth:`sync`,
    :meth:`close` and before any :meth:`truncate` -- so bulk blob ingestion
    does not rewrite a growing index per insert; a crash between syncs can
    orphan blob files written since the last flush (they are re-addable,
    never corrupt).
    Truncation and every blob/meta write use the write-temp-then-``os.replace``
    pattern, so a crash mid-write never leaves a half-updated file behind --
    at worst the tail of a ``.log`` holds one torn line, which
    :meth:`records` surfaces as :class:`StorageCorruptionError` (and the WAL
    layer reports with the offending sequence number).
    """

    kind = "log"

    def __init__(self, directory: str | Path, fsync: bool = False) -> None:
        self.directory = Path(directory)
        self.fsync = bool(fsync)
        (self.directory / "wal").mkdir(parents=True, exist_ok=True)
        (self.directory / "blobs").mkdir(exist_ok=True)
        (self.directory / "meta").mkdir(exist_ok=True)
        self._handles: Dict[str, Any] = {}
        self._next_seq: Dict[str, int] = {}
        self._indexes: Dict[str, Dict[str, str]] = {}
        #: Namespaces whose in-memory index is newer than its file.  Indexes
        #: flush on sync()/close()/truncate() instead of on every put, so
        #: blob ingestion is O(n) instead of rewriting a growing index file
        #: per insert.
        self._dirty_indexes: set = set()
        self._closed = False

    # -- paths ----------------------------------------------------------------

    def _topic_path(self, topic: str) -> Path:
        if not _SAFE_KEY.match(topic):
            raise StorageError(f"invalid topic name {topic!r}")
        return self.directory / "wal" / f"{topic}.log"

    def _namespace_dir(self, namespace: str) -> Path:
        if not re.match(r"^[A-Za-z0-9._/-]{1,128}$", namespace) or ".." in namespace:
            raise StorageError(f"invalid blob namespace {namespace!r}")
        return self.directory / "blobs" / namespace

    def _index_path(self, namespace: str) -> Path:
        # Plain concatenation, NOT Path.with_suffix: a namespace like
        # "ipfs/node.v2" must not have ".v2" stripped (which would make
        # dotted namespaces collide on one index file).
        directory = self._namespace_dir(namespace)
        return directory.parent / (directory.name + ".idx.json")

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        # Dot-prefixed temp name: no blob/meta/index file ever starts with a
        # dot (_SAFE_KEY forbids it; hashed names start with "h"), so a key
        # like "model.tmp" cannot be clobbered by another key's temp file.
        tmp = path.with_name("." + path.name + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    # -- records -------------------------------------------------------------

    def _load_next_seq(self, topic: str) -> int:
        if topic in self._next_seq:
            return self._next_seq[topic]
        meta = self.get_meta(f"topic-{topic}")
        next_seq = int(meta["next_seq"]) if meta else 0
        path = self._topic_path(topic)
        if path.exists():
            for _, line in self._iter_lines(path):
                try:
                    seq = json.loads(line)["seq"]
                except (ValueError, KeyError, TypeError):
                    continue  # torn tail line; append() continues past it
                next_seq = max(next_seq, int(seq) + 1)
        self._next_seq[topic] = next_seq
        return next_seq

    @staticmethod
    def _iter_lines(path: Path) -> Iterator[Tuple[int, str]]:
        with path.open("r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if line:
                    yield number, line

    @staticmethod
    def _repair_torn_tail(path: Path) -> None:
        """Drop an unterminated final line (the residue of a kill -9).

        Appending after a torn tail would otherwise merge the new line into
        the fragment -- losing an acknowledged write and, once a further
        line lands, turning the merge into mid-file corruption that fails
        every later read.  The fragment itself was never acknowledged, so
        truncating it is exactly the contract the WAL promises.
        """
        if not path.exists():
            return
        data = path.read_bytes()
        if not data or data.endswith(b"\n"):
            return
        keep = data.rfind(b"\n") + 1
        with path.open("rb+") as handle:
            handle.truncate(keep)

    def _handle(self, topic: str):
        handle = self._handles.get(topic)
        if handle is None:
            path = self._topic_path(topic)
            self._repair_torn_tail(path)
            handle = path.open("a", encoding="utf-8")
            self._handles[topic] = handle
        return handle

    def append(self, topic: str, record: Dict[str, Any]) -> int:
        self._check_open()
        seq = self._load_next_seq(topic)
        self._next_seq[topic] = seq + 1
        handle = self._handle(topic)
        handle.write(_encode_line(seq, record) + "\n")
        # Always push the entry past Python's userspace buffer: a write-ahead
        # log that a kill -9 can silently truncate is not a WAL.  fsync
        # (power-loss durability) stays opt-in because it costs a disk flush
        # per entry.
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())
        return seq

    def _checked_lines(self, topic: str) -> Iterator[Tuple[int, Any, str]]:
        """Each intact line of ``topic`` as its seq, its record still in the
        canonical form it was written in (bytes not yet decoded), and its
        text; every checksum verified, each line parsed once."""
        self._flush(topic)
        path = self._topic_path(topic)
        if not path.exists():
            return
        lines = list(self._iter_lines(path))
        for position, (number, line) in enumerate(lines):
            try:
                entry = json.loads(line)
                seq = int(entry["seq"])
                record = entry["record"]
                checksum = entry["checksum"]
            except (ValueError, KeyError, TypeError) as exc:
                if position == len(lines) - 1:
                    # A torn final line is exactly what a kill -9 mid-append
                    # leaves behind: the write was never acknowledged, so
                    # recovery simply ignores it.
                    return
                raise StorageCorruptionError(
                    f"corrupt record at {path.name}:{number}: {exc}"
                ) from exc
            # The record is canonical JSON already: its canonical text is
            # what the checksum was taken over at append.
            payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
            if keccak256(payload.encode("utf-8")).hex()[:16] != checksum:
                raise StorageCorruptionError(
                    f"checksum mismatch at {path.name}:{number} (seq {seq})"
                )
            yield seq, record, line

    def records(self, topic: str, start: int = 0) -> Iterator[Tuple[int, Dict[str, Any]]]:
        for seq, record, _line in self._checked_lines(topic):
            if seq >= start:
                yield seq, decode_canonical(record)

    def next_seq(self, topic: str) -> int:
        return self._load_next_seq(topic)

    def truncate(self, topic: str, upto_seq: int, keep: Optional[Keep] = None) -> int:
        retained: List[str] = []
        removed = 0
        # One pass: a record at or below the bound is decoded only for
        # ``keep``, and a retained line is rewritten as the text it was read as.
        for seq, record, line in self._checked_lines(topic):
            if seq > upto_seq or (keep is not None and keep(seq, decode_canonical(record))):
                retained.append(line)
            else:
                removed += 1
        # Flush pending blob indexes before the one destructive operation:
        # compaction archives blocks to blob storage (from ``keep``), and the
        # archive must be referenced on disk before its WAL source dies.
        self._flush_indexes()
        # Persist the sequence cursor first so a fully truncated topic does
        # not restart numbering from zero after a reopen.
        self.put_meta(f"topic-{topic}", {"next_seq": self._load_next_seq(topic)})
        handle = self._handles.pop(topic, None)
        if handle is not None:
            handle.close()
        self._atomic_write(
            self._topic_path(topic),
            ("\n".join(retained) + ("\n" if retained else "")).encode("utf-8"),
        )
        return removed

    def _flush(self, topic: str) -> None:
        handle = self._handles.get(topic)
        if handle is not None:
            handle.flush()

    # -- blobs ---------------------------------------------------------------

    def _index(self, namespace: str) -> Dict[str, str]:
        if namespace not in self._indexes:
            path = self._index_path(namespace)
            if path.exists():
                self._indexes[namespace] = json.loads(path.read_text())
            else:
                self._indexes[namespace] = {}
        return self._indexes[namespace]

    def _flush_indexes(self) -> None:
        for namespace in sorted(self._dirty_indexes):
            self._atomic_write(
                self._index_path(namespace),
                json.dumps(self._indexes[namespace],
                           indent=0, sort_keys=True).encode("utf-8"),
            )
        self._dirty_indexes.clear()

    def put_blob(self, namespace: str, key: str, data: bytes) -> None:
        self._check_open()
        filename = _blob_filename(key)
        self._atomic_write(self._namespace_dir(namespace) / filename, bytes(data))
        index = self._index(namespace)
        if index.get(key) != filename:
            index[key] = filename
            self._dirty_indexes.add(namespace)

    def get_blob(self, namespace: str, key: str) -> bytes:
        filename = self._index(namespace).get(key)
        if filename is None:
            raise StorageError(f"no blob {key!r} in namespace {namespace!r}")
        path = self._namespace_dir(namespace) / filename
        if not path.exists():
            raise StorageCorruptionError(
                f"blob index names {filename!r} but the file is missing"
            )
        return path.read_bytes()

    def has_blob(self, namespace: str, key: str) -> bool:
        return key in self._index(namespace)

    def delete_blob(self, namespace: str, key: str) -> bool:
        index = self._index(namespace)
        filename = index.pop(key, None)
        if filename is None:
            return False
        # Persist the index (key removed) *before* unlinking: a crash in
        # between then only orphans a file, it never leaves the index naming
        # a missing one.  Deletes are rare (GC, snapshot pruning), so the
        # eager flush costs nothing on the ingestion hot path.
        self._dirty_indexes.add(namespace)
        self._flush_indexes()
        path = self._namespace_dir(namespace) / filename
        if path.exists():
            path.unlink()
        return True

    def blob_keys(self, namespace: str) -> List[str]:
        return sorted(self._index(namespace))

    def blob_bytes(self, namespace: str) -> int:
        directory = self._namespace_dir(namespace)
        total = 0
        for filename in self._index(namespace).values():
            path = directory / filename
            if path.exists():
                total += path.stat().st_size  # stat, not a full read
        return total

    # -- meta ----------------------------------------------------------------

    def _meta_path(self, key: str) -> Path:
        if not _SAFE_KEY.match(key):
            raise StorageError(f"invalid meta key {key!r}")
        return self.directory / "meta" / f"{key}.json"

    def put_meta(self, key: str, value: Dict[str, Any]) -> None:
        self._check_open()
        self._atomic_write(
            self._meta_path(key),
            canonical_dumps(value).encode("utf-8"),
        )

    def get_meta(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._meta_path(key)
        if not path.exists():
            return None
        return canonical_loads(path.read_text())

    # -- lifecycle -----------------------------------------------------------

    def sync(self) -> None:
        self._check_open()
        self._flush_indexes()
        for handle in self._handles.values():
            handle.flush()
            os.fsync(handle.fileno())

    def close(self) -> None:
        if not self._closed:
            self._flush_indexes()
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("backend is closed")

    def describe(self) -> Dict[str, Any]:
        self._flush_indexes()
        for handle in self._handles.values():
            handle.flush()
        topics = {}
        for path in sorted((self.directory / "wal").glob("*.log")):
            topics[path.stem] = sum(1 for _ in self._iter_lines(path))
        namespaces = {}
        for index_path in sorted((self.directory / "blobs").glob("**/*.idx.json")):
            namespace = str(
                index_path.relative_to(self.directory / "blobs")
            )[: -len(".idx.json")]
            namespaces[namespace] = {
                "blobs": len(json.loads(index_path.read_text())),
                "bytes": self.blob_bytes(namespace),
            }
        return {
            "kind": self.kind,
            "directory": str(self.directory),
            "topics": topics,
            "blob_namespaces": namespaces,
            "meta_keys": sorted(p.stem for p in (self.directory / "meta").glob("*.json")),
        }
