"""Tier-1 check of the benchmark itself: the manifest obeys its limits and a
smoke-sized run of every workload, untraced and traced, emits every metric."""

import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_manifest_is_within_limits():
    manifest = load_manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [metric for metric in manifest["end_to_end"] if metric["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(metric["bound"] for metric in manifest["end_to_end"])


def test_smoke_run_emits_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--smoke", "--trace",
         "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=170)
    assert done.returncode == 0, done.stdout
    document = json.loads(out.read_text())
    manifest = load_manifest()
    for workload in (entry["name"] for entry in manifest["workloads"]):
        (run,) = document["runs"][workload]
        layers = document["per_layer"][workload]
        for result, metrics in ((run, manifest["end_to_end"]), (layers, manifest["per_layer"])):
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert set(result["metrics"]) == {metric["name"] for metric in metrics}
            for metric in metrics:
                reported = result["metrics"][metric["name"]]
                assert reported["unit"] == metric["unit"]
                assert math.isfinite(reported["value"]), metric["name"]
        assert all(reported["value"] > 0 for reported in run["metrics"].values())
    # Each layer's own rows are non-zero on the workload meant to move them.
    layer = {name: {metric: entry["value"] for metric, entry in result["metrics"].items()}
             for name, result in document["per_layer"].items()}
    assert layer["ingest"]["chain.verify_per_tx"] == 1.0
    assert layer["ingest"]["rpc.calls"] == 0 and layer["wire_read"]["chain.verify_calls"] == 0
    assert layer["wire_mixed"]["storage.wal_appends"] > 0
    assert layer["wire_mixed"]["net.requests_total"] > 0
    assert layer["wire_read"]["net.batch_gain"] > 1
    assert layer["wire_ipfs"]["ipfs.add_calls"] > 0 and layer["wire_ipfs"]["ipfs.cat_calls"] > 0
    assert layer["marketplace"]["fl.aggregate_calls"] > layer["marketplace"]["incentives.value_calls"] > 0
    assert all(entry["accel.default_off_calls"] == 0 for entry in layer.values())
