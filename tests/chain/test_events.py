"""Tests for repro.chain.events."""

import pytest

from repro.chain.account import Address
from repro.chain.events import EventLog, LogFilter, LogPage, parse_cursor
from repro.chain.keys import KeyPair

CONTRACT = Address(KeyPair.from_label("contract").address)
OTHER = Address(KeyPair.from_label("other").address)


def make_log(name="CidUploaded", block=1, **args):
    return EventLog(address=CONTRACT, name=name, args=args, block_number=block)


class TestEventLog:

    def test_to_dict(self):
        payload = make_log(cid="Qm1", index=0).to_dict()
        assert payload["event"] == "CidUploaded"
        assert payload["args"]["cid"] == "Qm1"


class TestLogFilter:
    def test_empty_filter_matches_everything(self):
        logs = [make_log(), make_log("PaymentSent", block=3)]
        assert LogFilter().apply(logs) == logs

    def test_filter_by_event_name(self):
        logs = [make_log("A"), make_log("B")]
        assert [log.name for log in LogFilter(event_name="A").apply(logs)] == ["A"]

    def test_filter_by_address(self):
        mine = make_log()
        theirs = EventLog(address=OTHER, name="CidUploaded", args={})
        assert LogFilter(address=CONTRACT).apply([mine, theirs]) == [mine]

    def test_filter_by_block_range(self):
        logs = [make_log(block=1), make_log(block=5), make_log(block=9)]
        filtered = LogFilter(from_block=2, to_block=8).apply(logs)
        assert [log.block_number for log in filtered] == [5]

    def test_filter_by_argument(self):
        logs = [make_log(cid="a"), make_log(cid="b")]
        assert LogFilter(arg_filters={"cid": "b"}).apply(logs) == [logs[1]]

    def test_combined_criteria(self):
        logs = [make_log(cid="a", block=1), make_log(cid="a", block=7)]
        filtered = LogFilter(event_name="CidUploaded", from_block=5, arg_filters={"cid": "a"}).apply(logs)
        assert filtered == [logs[1]]


class TestPagination:
    def test_absent_cursor_starts_at_zero(self):
        assert parse_cursor(None) == 0
        assert parse_cursor("12") == 12

    @pytest.mark.parametrize("cursor", ["-1", "abc", "1.5", ""])
    def test_malformed_cursor_names_what_it_paginates(self, cursor):
        with pytest.raises(ValueError, match="malformed record cursor"):
            parse_cursor(cursor, what="record")

    def test_page_iterates_and_renders_its_logs(self):
        logs = [make_log(cid="a"), make_log(cid="b")]
        page = LogPage(logs, next_cursor="2")
        assert len(page) == 2
        assert list(page) == logs
        assert page.to_dict() == {"logs": [log.to_dict() for log in logs], "next_cursor": "2"}
