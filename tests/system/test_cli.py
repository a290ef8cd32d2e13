"""Tests for the command-line interface (python -m repro)."""

import argparse
import json

import pytest

from repro.cli import build_parser, main
from repro.version import __version__


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--preset", "quick", "--owners", "3"])
        assert args.command == "run"
        assert args.owners == 3

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_no_command_prints_help_and_fails(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_run_offers_every_one_shot_aggregator_and_no_other(self):
        # The CLI lists its choices by hand: importing repro.fl here would
        # load numpy on every command, ``repro info`` included.
        from repro.fl.oneshot import AGGREGATORS

        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        run = subparsers.choices["run"]
        aggregator = next(action for action in run._actions if action.dest == "aggregator")
        assert sorted(aggregator.choices) == sorted(AGGREGATORS)


class TestInfoCommand:
    def test_info_lists_subsystems(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "chain" in output
        assert "OFL-W3" in output


class TestRunCommand:
    def test_quick_run_and_save(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        exit_code = main([
            "run", "--preset", "quick", "--owners", "2", "--epochs", "1",
            "--seed", "31", "--save", str(report_path),
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "aggregate accuracy" in output
        assert report_path.exists()
        payload = json.loads(report_path.read_text())
        assert payload["config"]["num_owners"] == 2

    def test_show_saved_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        main(["run", "--preset", "quick", "--owners", "2", "--epochs", "1",
              "--seed", "32", "--save", str(report_path)])
        capsys.readouterr()
        assert main(["show", str(report_path)]) == 0
        assert "aggregate accuracy" in capsys.readouterr().out


class TestSimulateCommand:
    def test_simulate_parser_flags(self):
        parser = build_parser()
        args = parser.parse_args([
            "simulate", "--scenario", "adversarial", "--poison-fraction", "0.3",
            "--tasks", "2", "--network", "lossy",
        ])
        assert args.command == "simulate"
        assert args.scenario == "adversarial"
        assert args.poison_fraction == pytest.approx(0.3)
        assert args.tasks == 2
        assert args.network == "lossy"

    def test_simulate_adversarial_and_save(self, tmp_path, capsys):
        report_path = tmp_path / "scenario.json"
        exit_code = main([
            "simulate", "--scenario", "adversarial", "--poison-fraction", "0.5",
            "--owners", "2", "--epochs", "1", "--seed", "21",
            "--save", str(report_path),
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "adversarial" in output
        assert "adversary fraction" in output or "adversaries" in output
        payload = json.loads(report_path.read_text())
        assert payload["schema"] == "oflw3-scenario-report/v1"
        assert payload["tasks"][0]["adversary_fraction"] == pytest.approx(0.5)

    def test_simulate_concurrent_tasks(self, capsys):
        exit_code = main([
            "simulate", "--scenario", "concurrent", "--tasks", "3",
            "--owners", "2", "--epochs", "1", "--seed", "22",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "3/3 completed" in output


class TestGasReportCommand:
    def test_gas_report_prints_fee_table(self, capsys):
        assert main(["gas-report", "--owners", "2"]) == 0
        output = capsys.readouterr().out
        assert "deployment" in output
        assert "cid_submission" in output
        assert "ratio" in output


class TestModelQualityCommand:
    def test_model_quality_prints_series(self, capsys):
        exit_code = main([
            "model-quality", "--owners", "2", "--epochs", "1", "--samples", "400", "--seed", "5",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "aggregate (pfnm)" in output
        assert "least useful owner" in output


class TestBadMarketplaceFlags:
    """OFLW3Config and the partitioner are the only checks of these flags;
    the CLI turns what they raise into one ``error:`` line and exit 2."""

    @pytest.mark.parametrize("argv", [
        ["run", "--owners", "0"],
        ["run", "--epochs", "0"],
        ["simulate", "--owners", "0"],
        ["model-quality", "--owners", "3", "--samples", "10", "--epochs", "1"],
        ["model-quality", "--owners", "2", "--samples", "400", "--epochs", "0"],
    ])
    def test_one_error_line_and_exit_2(self, argv, capsys):
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")


class TestRpcCommand:
    def test_list_methods(self, capsys):
        assert main(["rpc", "--list"]) == 0
        output = capsys.readouterr().out
        for method in ("eth_blockNumber", "eth_sendRawTransaction",
                       "eth_getFilterChanges", "evm_mine"):
            assert method in output

    def test_single_call_prints_json(self, capsys):
        assert main(["rpc", "eth_chainId"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == "0xaa36a7"

    def test_error_response_sets_exit_code(self, capsys):
        assert main(["rpc", "eth_noSuchMethod"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["code"] == -32601

    def test_batch_flag(self, capsys):
        batch = ('[{"jsonrpc": "2.0", "id": 1, "method": "eth_chainId"},'
                 ' {"jsonrpc": "2.0", "id": 2, "method": "eth_blockNumber"}]')
        assert main(["rpc", "--batch", batch]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["id"] for entry in payload] == [1, 2]

    def test_invalid_batch_json_rejected(self, capsys):
        assert main(["rpc", "--batch", "{nope"]) == 2

    def test_missing_method_rejected(self, capsys):
        assert main(["rpc"]) == 2

    def test_params_parsed_as_json_with_string_fallback(self, capsys):
        address = "0x" + "11" * 20
        assert main(["rpc", "eth_getBalance", address, '"latest"']) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == "0x0"


class TestStorageCommands:
    @pytest.fixture()
    def persisted_store(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        exit_code = main([
            "run", "--preset", "quick", "--owners", "2", "--epochs", "1",
            "--seed", "33", "--store", str(store_dir),
        ])
        assert exit_code == 0
        assert "chain persisted" in capsys.readouterr().out
        return store_dir

    def test_run_store_then_inspect(self, persisted_store, capsys):
        assert main(["storage", "inspect", str(persisted_store)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["backend"] == "log"
        assert payload["snapshot"] is not None
        assert any(ns.startswith("ipfs/") for ns in
                   payload["backend"]["blob_namespaces"])

    def test_verify_replays_to_the_persisted_head(self, persisted_store, capsys):
        assert main(["storage", "verify", str(persisted_store)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["height"] > 0
        assert payload["head_hash"].startswith("0x")
        assert payload["pending_transactions"] == 0

    def test_compact_then_verify_still_recovers(self, persisted_store, capsys):
        assert main(["storage", "compact", str(persisted_store)]) == 0
        capsys.readouterr()
        assert main(["storage", "verify", str(persisted_store)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["height"] > 0

    def test_missing_directory_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["storage", "inspect", str(missing)]) == 2
        assert "not a store directory" in capsys.readouterr().err

    def test_existing_non_store_directory_is_rejected_untouched(self, tmp_path, capsys):
        plain = tmp_path / "my-project"
        plain.mkdir()
        (plain / "notes.txt").write_text("hello")
        assert main(["storage", "inspect", str(plain)]) == 2
        assert "not a store directory" in capsys.readouterr().err
        # Crucially: the command must not have scaffolded wal/blobs/meta.
        assert sorted(p.name for p in plain.iterdir()) == ["notes.txt"]

    def test_reusing_a_store_directory_is_a_clean_error(self, persisted_store, capsys):
        exit_code = main([
            "run", "--preset", "quick", "--owners", "2", "--epochs", "1",
            "--seed", "33", "--store", str(persisted_store),
        ])
        assert exit_code == 2
        assert "already holds chain history" in capsys.readouterr().err


class TestClusterCommand:
    def test_cluster_parser_flags(self):
        parser = build_parser()
        args = parser.parse_args([
            "cluster", "status", "--replicas", "4", "--blocks", "3",
            "--profile", "wan", "--geo", "--json",
        ])
        assert args.command == "cluster"
        assert args.action == "status"
        assert args.replicas == 4
        assert args.geo is True

    def test_cluster_status_converges_and_prints_table(self, capsys):
        assert main(["cluster", "status", "--replicas", "3",
                     "--blocks", "3", "--txs", "6"]) == 0
        output = capsys.readouterr().out
        assert "converged" in output
        assert "replica-0" in output and "replica-2" in output
        assert "gossip:" in output

    def test_cluster_status_json_document(self, capsys):
        import json as json_module

        assert main(["cluster", "status", "--replicas", "2", "--blocks", "2",
                     "--txs", "2", "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert len(payload["replicas"]) == 2


class TestSaveDeterminism:
    def test_identical_simulate_runs_save_identical_bytes(self, tmp_path, capsys):
        """Saved scenario reports are canonical: sorted keys, stable bytes."""
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main([
                "simulate", "--scenario", "ideal", "--owners", "2",
                "--epochs", "1", "--seed", "23", "--save", str(path),
            ]) == 0
        capsys.readouterr()
        first, second = (path.read_bytes() for path in paths)
        assert first == second

        payload = json.loads(first)

        def keys_sorted(value):
            if isinstance(value, dict):
                assert list(value) == sorted(value)
                for child in value.values():
                    keys_sorted(child)
            elif isinstance(value, list):
                for child in value:
                    keys_sorted(child)

        keys_sorted(payload)


class TestRpcMarkdown:
    def test_markdown_flag_prints_the_reference(self, capsys):
        assert main(["rpc", "--list", "--markdown"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("# JSON-RPC method reference")
        assert "| `eth_chainId` |" in output
        assert "| `storage_stats` |" in output


class TestLoadgenCommandIsGone:
    def test_the_loadgen_subcommand_is_gone(self, capsys):
        # The background load lives in simnet scenarios (flashcrowd, soak,
        # analytics_storm); argparse refuses the old front.
        with pytest.raises(SystemExit) as exit_info:
            main(["loadgen", "--clients", "20"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'loadgen'" in capsys.readouterr().err
