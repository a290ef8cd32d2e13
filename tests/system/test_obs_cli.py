"""The ``repro obs`` command and the ``--obs`` report round-trip.

Saved reports embed an ``"obs"`` key only when a run opted into
observability; default saves stay byte-compatible with pre-obs reports.
The deterministic halves of the embedded summary (span/event/phase counts)
must agree across identically seeded runs.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.loadgen import LoadGenConfig, LoadGenerator
from repro.simnet.events import EventScheduler
from repro.simnet.runner import slot_producer
from repro.system.stack import build_stack


class TestParser:
    def test_obs_subcommand_registered(self):
        args = build_parser().parse_args(
            ["obs", "trace", "--scenario", "partition_heal", "--seed", "3"])
        assert args.command == "obs"
        assert args.action == "trace"
        assert args.scenario == "partition_heal"

    def test_simulate_grew_an_obs_flag(self):
        parser = build_parser()
        assert parser.parse_args(["simulate", "--obs"]).obs is True
        assert parser.parse_args(["simulate"]).obs is False

    def test_obs_observes_the_flashcrowd_scenario_by_default(self, capsys):
        parser = build_parser()
        assert parser.parse_args(["obs", "metrics"]).scenario == "flashcrowd"
        with pytest.raises(SystemExit):
            parser.parse_args(["obs", "metrics", "--clients", "10"])
        assert "unrecognized arguments: --clients" in capsys.readouterr().err


class TestSaveRoundTrip:
    def test_simulate_save_embeds_obs_only_when_enabled(self, tmp_path, capsys):
        base = ["simulate", "--scenario", "ideal", "--owners", "2",
                "--epochs", "1", "--seed", "42"]
        plain, observed = tmp_path / "plain.json", tmp_path / "observed.json"
        assert main(base + ["--save", str(plain)]) == 0
        assert main(base + ["--obs", "--save", str(observed)]) == 0
        capsys.readouterr()

        plain_payload = json.loads(plain.read_text())
        observed_payload = json.loads(observed.read_text())
        assert "obs" not in plain_payload
        assert observed_payload["obs"]["traces_total"] > 0
        del observed_payload["obs"]
        assert observed_payload == plain_payload


class TestObsCommand:
    def test_metrics_action_dumps_prometheus_text(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        assert main(["obs", "metrics", "--seed", "7",
                     "--save-events", str(events)]) == 0
        output = capsys.readouterr().out
        assert "# TYPE repro_rpc_requests_total counter" in output
        assert "repro_loadgen_offered_total" in output
        assert events.exists()

    def test_trace_action_renders_a_cross_replica_tree(self, capsys):
        assert main(["obs", "trace", "--scenario", "partition_heal",
                     "--seed", "42"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("trace 0x")
        assert "tx.submit @replica-0" in output
        assert "gossip.deliver" in output

    def test_top_action_prints_the_cost_table(self, capsys):
        assert main(["obs", "top", "--seed", "7"]) == 0
        output = capsys.readouterr().out
        assert "phase" in output.splitlines()[0]
        assert "chain.execute" in output


class TestDeterminism:
    @staticmethod
    def _observed_summary(seed: int) -> dict:
        stack = build_stack(observability=True)
        scheduler = EventScheduler(stack.clock)
        generator = LoadGenerator(
            LoadGenConfig(clients=10, rate=5.0, duration_seconds=30.0,
                          seed=seed),
            stack=stack, scheduler=scheduler,
        )
        generator.install()
        scheduler.spawn(slot_producer(stack, generator.busy), name="block-producer")
        scheduler.run()
        stack.close()
        summary = stack.obs.stats_dict()
        # wall-clock-bearing registry snapshot varies run to run by design
        del summary["metrics"]
        return summary

    def test_identically_seeded_runs_agree_on_the_deterministic_summary(self):
        first = self._observed_summary(9)
        second = self._observed_summary(9)
        assert first == second
        assert first["spans_total"] > 0
        assert first["phase_calls"]

    def test_different_seeds_actually_differ(self):
        first = self._observed_summary(9)
        second = self._observed_summary(10)
        assert first["sample_trace_id"] != second["sample_trace_id"]
