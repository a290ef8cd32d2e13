"""Backend protocol tests: MemoryBackend and LogBackend speak one language."""

from __future__ import annotations

import json

import pytest

from repro.errors import StorageCorruptionError, StorageError
from repro.storage import LogBackend, MemoryBackend


@pytest.fixture(params=["memory", "log"])
def backend(request, tmp_path):
    if request.param == "memory":
        backend = MemoryBackend()
    else:
        backend = LogBackend(tmp_path / "store")
    yield backend
    backend.close()


class TestRecords:
    def test_append_assigns_monotone_sequence_numbers(self, backend):
        assert backend.append("t", {"n": 1}) == 0
        assert backend.append("t", {"n": 2}) == 1
        assert backend.append("other", {"n": 3}) == 0  # per-topic numbering

    def test_records_round_trip_in_order(self, backend):
        for n in range(5):
            backend.append("t", {"n": n, "blob": b"\x00\xff" * 3})
        got = list(backend.records("t"))
        assert [seq for seq, _ in got] == [0, 1, 2, 3, 4]
        assert [r["n"] for _, r in got] == [0, 1, 2, 3, 4]
        assert got[0][1]["blob"] == b"\x00\xff" * 3  # bytes survive exactly

    def test_records_start_offset(self, backend):
        for n in range(4):
            backend.append("t", {"n": n})
        assert [r["n"] for _, r in backend.records("t", start=2)] == [2, 3]

    def test_persisted_record_is_isolated_from_caller_mutation(self, backend):
        record = {"inner": {"x": 1}}
        backend.append("t", record)
        record["inner"]["x"] = 999
        assert next(backend.records("t"))[1]["inner"]["x"] == 1

    def test_truncate_drops_prefix_and_keeps_sequence_numbers(self, backend):
        for n in range(6):
            backend.append("t", {"n": n})
        seen = []
        removed = backend.truncate("t", 3, lambda seq, record: seen.append(record["n"])
                                   or seq == 1)
        assert removed == 3  # 0, 2, 3 dropped; 1 kept; 4, 5 above the bound
        assert seen == [0, 1, 2, 3]  # each record at or below it, once, in order
        assert [seq for seq, _ in backend.records("t")] == [1, 4, 5]
        # Numbering continues from the high-water mark, not from the holes.
        assert backend.append("t", {"n": 6}) == 6

    def test_truncate_everything_does_not_reuse_sequence_numbers(self, backend):
        for n in range(3):
            backend.append("t", {"n": n})
        backend.truncate("t", 2)
        assert sum(1 for _ in backend.records("t")) == 0
        assert backend.next_seq("t") == 3
        assert backend.append("t", {"n": 3}) == 3


class TestBlobs:
    def test_blob_round_trip_and_overwrite(self, backend):
        backend.put_blob("ns", "key", b"one")
        assert backend.get_blob("ns", "key") == b"one"
        backend.put_blob("ns", "key", b"two")
        assert backend.get_blob("ns", "key") == b"two"

    def test_unsafe_keys_are_stored_via_hashed_filenames(self, backend):
        ugly = "Qm/../..//\x00weird key!*"
        backend.put_blob("ns", ugly, b"payload")
        assert backend.has_blob("ns", ugly)
        assert backend.get_blob("ns", ugly) == b"payload"
        assert ugly in backend.blob_keys("ns")

    def test_delete_blob(self, backend):
        backend.put_blob("ns", "key", b"x")
        assert backend.delete_blob("ns", "key") is True
        assert backend.delete_blob("ns", "key") is False
        assert not backend.has_blob("ns", "key")

    def test_missing_blob_raises(self, backend):
        with pytest.raises(StorageError):
            backend.get_blob("ns", "nope")

    def test_blob_keys_sorted_per_namespace(self, backend):
        backend.put_blob("a", "k2", b"2")
        backend.put_blob("a", "k1", b"1")
        backend.put_blob("b", "k3", b"3")
        assert backend.blob_keys("a") == ["k1", "k2"]
        assert backend.blob_keys("b") == ["k3"]


class TestMeta:
    def test_meta_round_trip(self, backend):
        assert backend.get_meta("pointer") is None
        backend.put_meta("pointer", {"height": 7, "hash": "0xabc"})
        assert backend.get_meta("pointer") == {"height": 7, "hash": "0xabc"}

    def test_describe_is_json_safe(self, backend):
        backend.append("t", {"n": 0})
        backend.put_blob("ns", "k", b"x")
        backend.put_meta("m", {"v": 1})
        description = backend.describe()
        json.dumps(description)
        assert description["kind"] in ("memory", "log")
        assert description["topics"] == {"t": 1}


class TestLogBackendDurability:
    """Behaviours only the file-backed backend exhibits."""

    def test_reopen_preserves_records_blobs_meta_and_seq(self, tmp_path):
        first = LogBackend(tmp_path / "s")
        first.append("t", {"n": 0})
        first.append("t", {"n": 1})
        first.put_blob("ns", "k", b"payload")
        first.put_meta("m", {"v": 2})
        first.close()

        second = LogBackend(tmp_path / "s")
        assert [r["n"] for _, r in second.records("t")] == [0, 1]
        assert second.get_blob("ns", "k") == b"payload"
        assert second.get_meta("m") == {"v": 2}
        assert second.append("t", {"n": 2}) == 2
        second.close()

    def test_torn_final_line_is_ignored_like_an_unacked_write(self, tmp_path):
        backend = LogBackend(tmp_path / "s")
        backend.append("t", {"n": 0})
        backend.sync()
        backend.close()
        log = tmp_path / "s" / "wal" / "t.log"
        with log.open("a") as handle:
            handle.write('{"seq": 1, "checks')  # kill -9 mid-append
        reopened = LogBackend(tmp_path / "s")
        assert [r["n"] for _, r in reopened.records("t")] == [0]
        reopened.close()

    def test_corruption_in_the_middle_fails_loudly(self, tmp_path):
        backend = LogBackend(tmp_path / "s")
        backend.append("t", {"n": 0})
        backend.append("t", {"n": 1})
        backend.sync()
        backend.close()
        log = tmp_path / "s" / "wal" / "t.log"
        lines = log.read_text().splitlines()
        lines[0] = lines[0][:-10]  # damage a non-final record
        log.write_text("\n".join(lines) + "\n")
        reopened = LogBackend(tmp_path / "s")
        with pytest.raises(StorageCorruptionError):
            list(reopened.records("t"))
        reopened.close()

    def test_checksum_mismatch_fails_loudly(self, tmp_path):
        backend = LogBackend(tmp_path / "s")
        backend.append("t", {"amount": 10})
        backend.append("t", {"amount": 20})
        backend.sync()
        backend.close()
        log = tmp_path / "s" / "wal" / "t.log"
        text = log.read_text().replace('"amount":10', '"amount":99')
        log.write_text(text)
        reopened = LogBackend(tmp_path / "s")
        with pytest.raises(StorageCorruptionError, match="checksum"):
            list(reopened.records("t"))
        reopened.close()

    def test_truncate_reads_once_and_keeps_retained_lines_verbatim(
            self, tmp_path, monkeypatch):
        import repro.storage.backend as module

        backend = LogBackend(tmp_path / "s")
        for n in range(6):
            backend.append("t", {"n": n, "blob": bytes([n]) * 3, "x": n / 3, "s": "é"})
        log = tmp_path / "s" / "wal" / "t.log"
        lines = log.read_bytes().splitlines(keepends=True)
        decoded, reads = [], []
        decode, iter_lines = module.decode_canonical, LogBackend._iter_lines
        monkeypatch.setattr(module, "decode_canonical",
                            lambda value: decoded.append(value) or decode(value))
        monkeypatch.setattr(LogBackend, "_iter_lines",
                            staticmethod(lambda path: reads.append(path) or iter_lines(path)))
        assert backend.truncate("t", 3, lambda seq, record: seq == 1) == 3
        assert len(reads) == 1
        assert [record["n"] for record in decoded] == [0, 1, 2, 3]  # not 4, 5
        assert log.read_bytes() == b"".join([lines[1], *lines[4:]])
        monkeypatch.undo()
        records = list(backend.records("t"))
        assert [seq for seq, _ in records] == [1, 4, 5]
        assert records[0][1] == {"n": 1, "blob": b"\x01" * 3, "x": 1 / 3, "s": "é"}
        backend.close()

    def test_truncate_refuses_a_corrupt_log(self, tmp_path):
        backend = LogBackend(tmp_path / "s")
        for n in range(3):
            backend.append("t", {"amount": n})
        log = tmp_path / "s" / "wal" / "t.log"
        log.write_text(log.read_text().replace('"amount":2', '"amount":7'))
        with pytest.raises(StorageCorruptionError, match="checksum"):
            backend.truncate("t", 0)
        backend.close()

    def test_closed_backend_rejects_writes(self, tmp_path):
        backend = LogBackend(tmp_path / "s")
        backend.close()
        with pytest.raises(StorageError):
            backend.append("t", {"n": 0})


class TestReviewRegressions:
    """Regression tests for issues found in code review."""

    def test_appends_survive_an_abrupt_kill_without_close(self, tmp_path):
        """Every append must reach the OS immediately (no userspace buffer).

        Simulated kill -9: a second backend reads the same directory while
        the first is still open -- nothing was flushed or closed explicitly.
        """
        writer = LogBackend(tmp_path / "s")
        for n in range(20):
            writer.append("t", {"n": n})
        # No writer.sync(), no writer.close(): the process just "dies".
        reader = LogBackend(tmp_path / "s")
        assert [r["n"] for _, r in reader.records("t")] == list(range(20))
        reader.close()
        writer.close()

    def test_dotted_namespaces_keep_separate_indexes(self, backend):
        backend.put_blob("ipfs/node.v2", "k", b"two")
        backend.put_blob("ipfs/node.v3", "k", b"three")
        assert backend.get_blob("ipfs/node.v2", "k") == b"two"
        assert backend.get_blob("ipfs/node.v3", "k") == b"three"
        assert backend.delete_blob("ipfs/node.v2", "k") is True
        assert backend.get_blob("ipfs/node.v3", "k") == b"three"
        names = set(backend.describe()["blob_namespaces"])
        assert "ipfs/node.v3" in names and "ipfs/node" not in names

    def test_blob_bytes_counts_without_reading(self, backend):
        backend.put_blob("ns", "a", b"x" * 100)
        backend.put_blob("ns", "b", b"y" * 50)
        assert backend.blob_bytes("ns") == 150
        assert backend.blob_bytes("empty") == 0

    def test_appending_after_a_torn_tail_repairs_the_file(self, tmp_path):
        """The crash-then-continue flow: torn fragment dropped, appends clean."""
        backend = LogBackend(tmp_path / "s")
        backend.append("t", {"n": 0})
        backend.close()
        log = tmp_path / "s" / "wal" / "t.log"
        with log.open("a") as handle:
            handle.write('{"seq": 1, "chec')  # kill -9 mid-append, no newline

        survivor = LogBackend(tmp_path / "s")
        survivor.append("t", {"n": 1})
        survivor.append("t", {"n": 2})
        # Both acknowledged post-recovery writes must read back -- and keep
        # reading back across another reopen.
        assert [r["n"] for _, r in survivor.records("t")] == [0, 1, 2]
        survivor.close()
        reopened = LogBackend(tmp_path / "s")
        assert [r["n"] for _, r in reopened.records("t")] == [0, 1, 2]
        reopened.close()
