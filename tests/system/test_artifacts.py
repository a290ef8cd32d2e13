"""Tests for repro.system.artifacts (report persistence)."""

import json

import pytest

from repro.system.artifacts import (
    load_report,
    report_to_dict,
    save_json,
    save_report,
    summarize_report,
)
from repro.system.config import OFLW3Config


class TestReportToDict:
    def test_contains_every_section(self, quick_marketplace_report):
        payload = report_to_dict(quick_marketplace_report)
        expected_keys = {
            "schema", "config", "owner_addresses", "local_accuracies_by_owner",
            "aggregate_accuracy", "loo_drop_accuracies", "contributions",
            "payments_wei", "gas", "owner_time", "buyer_time", "model_payload_bytes",
        }
        assert expected_keys <= set(payload)
        assert payload["schema"].startswith("oflw3-marketplace-report")

    def test_is_json_serializable(self, quick_marketplace_report):
        payload = report_to_dict(quick_marketplace_report)
        text = json.dumps(payload, default=str)
        assert "aggregate_accuracy" in text


class TestSaveAndLoad:
    def test_roundtrip(self, quick_marketplace_report, tmp_path):
        target = save_report(quick_marketplace_report, tmp_path / "report.json")
        assert target.exists()
        loaded = load_report(target)
        assert loaded["aggregate_accuracy"] == pytest.approx(
            quick_marketplace_report.aggregate_accuracy
        )
        assert isinstance(loaded["config"], OFLW3Config)
        assert loaded["config"].num_owners == quick_marketplace_report.config.num_owners
        assert loaded["payments_wei"] == {
            k: int(v) for k, v in quick_marketplace_report.payments_wei.items()
        }

    def test_an_older_report_loads_through_the_raw_dict_path(
            self, quick_marketplace_report, tmp_path):
        # Reports saved before partition_scheme, classes_per_client and
        # samples_per_owner left OFLW3Config carry them in their config.
        target = save_report(quick_marketplace_report, tmp_path / "report.json")
        payload = json.loads(target.read_text())
        payload["config"].update(partition_scheme="dirichlet", classes_per_client=2,
                                 samples_per_owner=None)
        target.write_text(json.dumps(payload))
        loaded = load_report(target)
        assert loaded["config"] == payload["config"]
        assert loaded["aggregate_accuracy"] == payload["aggregate_accuracy"]
        assert "aggregate accuracy" in summarize_report(loaded)

    def test_nested_directories_created(self, quick_marketplace_report, tmp_path):
        target = save_report(quick_marketplace_report, tmp_path / "deep" / "dir" / "report.json")
        assert target.exists()

    def test_unknown_schema_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ValueError):
            load_report(bogus)

    def test_summarize_report(self, quick_marketplace_report, tmp_path):
        target = save_report(quick_marketplace_report, tmp_path / "report.json")
        summary = summarize_report(load_report(target))
        assert "aggregate accuracy" in summary
        assert "ETH" in summary


class TestSaveJson:
    def test_insertion_order_does_not_change_the_bytes(self, tmp_path):
        first = save_json({"b": 1, "a": {"d": 2, "c": 3}}, tmp_path / "one.json")
        second = save_json({"a": {"c": 3, "d": 2}, "b": 1}, tmp_path / "two.json")
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text().endswith("}\n")

    def test_unencodable_value_raises(self, tmp_path):
        with pytest.raises(TypeError, match="object"):
            save_json({"what": object()}, tmp_path / "bad.json")
