"""Write-ahead log semantics: typed entries, truncation, compaction."""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from repro.storage import MemoryBackend, WriteAheadLog
from repro.storage.wal import BLOCK_ARCHIVE_NAMESPACE, block_archive_key
from tests.oracles import last_block_entry


@pytest.fixture()
def wal():
    return WriteAheadLog(MemoryBackend())


def _block_payload(number: int) -> dict:
    return {
        "header": {"number": number, "hash": f"0x{number:064x}"},
        "transactions": [],
        "receipts": [],
    }


class TestAppendAndRead:
    def test_entries_round_trip_with_kinds(self, wal):
        wal.append("mint", {"address": "0xabc", "amount_wei": 5})
        wal.append("tx", {"hash": "0x1", "transaction": {}})
        wal.append("block", _block_payload(1))
        kinds = [entry.kind for entry in wal.entries()]
        assert kinds == ["mint", "tx", "block"]
        assert len(list(wal.entries())) == 3

    def test_unknown_kind_rejected_on_write(self, wal):
        with pytest.raises(StorageError):
            wal.append("bogus", {})

    def test_unknown_kind_rejected_on_read(self, wal):
        wal.backend.append(wal.topic, {"kind": "weird", "payload": {}})
        with pytest.raises(StorageError):
            list(wal.entries())

    def test_counts_by_kind(self, wal):
        wal.append("mint", {"address": "0x1", "amount_wei": 1})
        wal.append("mint", {"address": "0x2", "amount_wei": 2})
        wal.append("block", _block_payload(1))
        assert wal.counts_by_kind() == {"mint": 2, "tx": 0, "block": 1}

    def test_last_block_entry(self, wal):
        assert last_block_entry(wal) is None
        wal.append("block", _block_payload(1))
        wal.append("mint", {"address": "0x1", "amount_wei": 1})
        wal.append("block", _block_payload(2))
        assert last_block_entry(wal).payload["header"]["number"] == 2

    def test_last_seq_is_a_high_water_mark(self, wal):
        assert wal.last_seq() == -1
        wal.append("mint", {"address": "0x1", "amount_wei": 1})
        wal.append("mint", {"address": "0x2", "amount_wei": 2})
        assert wal.last_seq() == 1
        wal.backend.truncate(wal.topic, 1)
        assert wal.last_seq() == 1  # truncation does not rewind numbering


class TestCompaction:
    def test_compact_archives_blocks_drops_mints_keeps_pending_txs(self, wal):
        wal.append("mint", {"address": "0x1", "amount_wei": 1})        # seq 0
        wal.append("tx", {"hash": "0xincluded", "transaction": {}})    # seq 1
        wal.append("block", _block_payload(1))                         # seq 2
        wal.append("tx", {"hash": "0xpending", "transaction": {}})     # seq 3
        wal.append("block", _block_payload(2))                         # seq 4
        wal.append("mint", {"address": "0x2", "amount_wei": 2})        # seq 5 (after)

        included = {"0xincluded"}
        stats = wal.compact(4, is_pending_tx=lambda p: p["hash"] not in included)

        assert stats["archived_blocks"] == 2
        assert stats["retained_pending_txs"] == 1
        remaining = list(wal.entries())
        assert [(e.seq, e.kind) for e in remaining] == [(3, "tx"), (5, "mint")]
        assert remaining[0].payload["hash"] == "0xpending"
        assert wal.archived_block_numbers() == [1, 2]
        assert wal.archived_block(2)["header"]["number"] == 2

    def test_compacting_a_log_reads_it_once_and_keeps_line_text(
            self, tmp_path, monkeypatch):
        import repro.storage.backend as module
        from repro.storage import LogBackend

        log_wal = WriteAheadLog(LogBackend(tmp_path / "s"))
        log_wal.append("tx", {"hash": "0xincluded", "transaction": {}})
        log_wal.append("block", _block_payload(1))
        log_wal.append("tx", {"hash": "0xpending", "transaction": {"memo": "é"}})
        log_wal.append("mint", {"address": "0x2", "amount_wei": 2})
        log = tmp_path / "s" / "wal" / "chain.log"
        lines = log.read_bytes().splitlines(keepends=True)
        decoded, reads = [], []
        decode, iter_lines = module.decode_canonical, LogBackend._iter_lines
        monkeypatch.setattr(module, "decode_canonical",
                            lambda value: decoded.append(value) or decode(value))
        monkeypatch.setattr(LogBackend, "_iter_lines",
                            staticmethod(lambda path: reads.append(path) or iter_lines(path)))
        stats = log_wal.compact(2, is_pending_tx=lambda payload: payload["hash"] == "0xpending")
        assert stats == {"archived_blocks": 1, "dropped": 2, "retained_pending_txs": 1}
        assert len(reads) == 1 and len(decoded) == 3  # the mint above the bound: not decoded
        assert log.read_bytes() == lines[2] + lines[3]
        assert log_wal.archived_block(1) == _block_payload(1)
        log_wal.backend.close()

    def test_an_unknown_kind_aborts_compaction_before_anything_is_dropped(self, wal):
        wal.append("tx", {"hash": "0xa", "transaction": {}})
        wal.backend.append(wal.topic, {"kind": "bogus", "payload": {}})
        with pytest.raises(StorageError, match="unknown kind"):
            wal.compact(1, is_pending_tx=lambda payload: False)
        assert sum(1 for _ in wal.backend.records(wal.topic)) == 2

    def test_repeated_compaction_is_idempotent_for_archives(self, wal):
        wal.append("block", _block_payload(1))
        wal.compact(0, is_pending_tx=lambda p: True)
        # Archiving the same height again (e.g. replayed snapshot) overwrites
        # rather than duplicating.
        assert wal.backend.blob_keys(BLOCK_ARCHIVE_NAMESPACE) == [block_archive_key(1)]
        wal.append("block", _block_payload(2))
        wal.compact(wal.last_seq(), is_pending_tx=lambda p: True)
        assert wal.archived_block_numbers() == [1, 2]
        assert len(list(wal.entries())) == 0


class TestAppendedCounter:
    """``repro_storage_wal_records_total`` is "records appended": it is
    counted at ``append``, not re-read from the live log on every scrape,
    so it costs the loop thread nothing and never falls at a compaction."""

    @staticmethod
    def scrape(engine):
        from repro.obs.adapters import collect_storage
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        collect_storage(registry, engine)
        return {row["labels"]["kind"]: row["value"] for row in
                registry.snapshot()["repro_storage_wal_records_total"]["series"]}

    def test_a_scrape_reads_no_log_and_the_counter_never_falls(self, tmp_path,
                                                                 monkeypatch):
        from repro.storage import StorageConfig, StorageEngine

        config = StorageConfig(backend="log", directory=str(tmp_path))
        first = StorageEngine(config)
        first.wal.append("mint", {"address": "0x1", "amount_wei": 1})
        first.wal.append("block", _block_payload(1))
        first.close()

        engine = StorageEngine(config)  # opened with entries in it: one pass
        assert self.scrape(engine) == {"mint": 1, "tx": 0, "block": 1}
        reads = []
        records = engine.backend.records
        monkeypatch.setattr(
            engine.backend, "records",
            lambda *args, **kwargs: reads.append(args) or records(*args, **kwargs))
        for number in (2, 3, 4):
            engine.wal.append("tx", {"hash": f"0x{number}", "transaction": {}})
            engine.wal.append("block", _block_payload(number))
        before = self.scrape(engine)
        assert before == {"mint": 1, "tx": 3, "block": 4}
        assert reads == []

        engine.wal.compact(engine.wal.last_seq(), is_pending_tx=lambda p: False)
        reads.clear()
        after = self.scrape(engine)
        assert reads == [], "the collector replayed the WAL"
        assert after == before  # appended, not live: live is all zeros now
        assert engine.wal.counts_by_kind() == {"mint": 0, "tx": 0, "block": 0}
        assert engine.describe()["wal"] == {"mint": 0, "tx": 0, "block": 0}
        engine.close()


class TestLiveCounts:
    """``counts_by_kind`` (``storage_stats``' ``wal`` row) is kept up at
    append and compaction, not decoded from the whole log on every call."""

    @staticmethod
    def scanned(wal):
        counts = {"mint": 0, "tx": 0, "block": 0}
        for entry in wal.entries():
            counts[entry.kind] += 1
        return counts

    def test_counts_match_a_fresh_scan_through_appends_compaction_and_reopen(
            self, tmp_path, monkeypatch):
        from repro.storage import LogBackend

        wal = WriteAheadLog(LogBackend(tmp_path / "s"))
        for number in (1, 2, 3):
            wal.append("mint", {"address": "0x1", "amount_wei": number})
            wal.append("tx", {"hash": f"0x{number}", "transaction": {}})
            wal.append("block", _block_payload(number))
        assert wal.counts_by_kind() == self.scanned(wal) == {"mint": 3, "tx": 3, "block": 3}

        reads = []
        records = wal.backend.records
        monkeypatch.setattr(wal.backend, "records",
                            lambda *args, **kwargs: reads.append(args) or records(*args, **kwargs))
        wal.compact(5, is_pending_tx=lambda payload: payload["hash"] == "0x2")
        wal.append("tx", {"hash": "0x4", "transaction": {}})
        counts = wal.counts_by_kind()
        assert reads == []
        assert counts == self.scanned(wal) == {"mint": 1, "tx": 3, "block": 1}
        wal.backend.close()

        reopened = WriteAheadLog(LogBackend(tmp_path / "s"))
        assert reopened.counts_by_kind() == counts
        reopened.backend.close()

    def test_a_compaction_that_fails_leaves_the_counts(self, wal):
        wal.append("tx", {"hash": "0xa", "transaction": {}})
        wal.backend.append(wal.topic, {"kind": "bogus", "payload": {}})
        with pytest.raises(StorageError, match="unknown kind"):
            wal.compact(1, is_pending_tx=lambda payload: False)
        assert wal.counts_by_kind() == {"mint": 0, "tx": 1, "block": 0}
