"""Command-line interface for the OFL-W3 reproduction.

Subcommands
-----------
``run``
    Run the end-to-end marketplace (quick or paper preset, overridable) and
    print the headline results; optionally save the full report to JSON.
``simulate``
    Run a named discrete-event scenario (``repro.simnet``): concurrent
    tasks, adversarial owner populations, lossy networks -- and print the
    scenario report (throughput, mempool depth, gas, accuracy vs adversary
    fraction).
``serve``
    Serve the JSON-RPC gateway over real sockets (``repro.net``): HTTP
    single/batch POST, a WebSocket endpoint with ``eth_subscribe`` push,
    Prometheus ``GET /metrics`` and a graceful SIGTERM drain.
``rpc``
    Ad-hoc JSON-RPC calls against the gateway (``repro.rpc``): list the
    served methods, issue a single ``eth_*``/``ipfs_*``/``oflw3_*`` call or
    a raw batch, optionally against a chain pre-seeded with a tiny
    marketplace run.
``storage``
    Inspect, verify (replay to the recovered chain head) or compact a
    persistent store directory written by ``run --store DIR``
    (``repro.storage``: WAL + snapshots + IPFS blobs).
``analytics``
    Attach a columnar analytics replica (``repro.analytics``) to a store
    directory written by ``run --store DIR``: print its freshness status,
    run replica-served queries with an OLTP-scan parity check, or backfill
    the columns from scratch off the WAL + archive.
``cluster``
    Spin up an N-replica chain replication cluster (``repro.cluster``),
    drive a few funded transfers through leader rotation and gossip, and
    print the per-replica status table (heights, heads, reorgs,
    convergence) -- the quickest way to watch replication work.
``obs``
    Run a named scenario (``flashcrowd`` by default) with
    the unified observability layer (``repro.obs``) enabled and print its
    Prometheus metrics, a transaction's span tree, the per-phase cost table
    or the structured event log.
``gas-report``
    Replay only the on-chain side of the workflow and print the Fig. 5 fee
    table plus the CID-vs-model storage comparison.
``model-quality``
    Run the marketplace at the paper preset (owners, epochs, samples and
    seed overridable) and print its Fig. 4 / Fig. 6 series: local
    accuracies, the aggregate, the leave-one-out drops.
``show``
    Pretty-print a previously saved report JSON.
``info``
    Print the library version and the subsystems it provides.

Invoke as ``python -m repro <subcommand> ...``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.version import __version__


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OFL-W3: one-shot federated learning on a simulated Web 3.0 stack",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    run_parser = subparsers.add_parser("run", help="run the end-to-end marketplace")
    run_parser.add_argument("--preset", choices=["quick", "paper"], default="quick",
                            help="experiment scale (default: quick)")
    run_parser.add_argument("--owners", type=int, default=None, help="override the owner count")
    run_parser.add_argument("--epochs", type=int, default=None, help="override local epochs")
    run_parser.add_argument("--aggregator", default=None,
                            choices=["pfnm", "mean", "ensemble"], help="one-shot aggregator")
    run_parser.add_argument("--seed", type=int, default=None, help="override the random seed")
    run_parser.add_argument("--save", default=None, metavar="PATH",
                            help="save the full report to a JSON file")
    run_parser.add_argument("--store", default=None, metavar="DIR",
                            help="persist the chain (WAL + snapshots) and IPFS "
                                 "blocks under DIR; inspect or recover later "
                                 "with 'repro storage'")

    # Choices come from the simnet registries, so new scenarios/profiles are
    # CLI-reachable without touching this file.  Both modules are
    # import-light (no numpy): every subcommand, ``serve`` included, builds
    # this parser.
    from repro.simnet.profiles import NETWORK_PROFILES
    from repro.simnet.scenario import SCENARIOS

    sim_parser = subparsers.add_parser(
        "simulate", help="run a discrete-event scenario (simnet)")
    sim_parser.add_argument("--scenario", default="ideal",
                            choices=sorted(SCENARIOS),
                            help="named scenario (default: ideal)")
    sim_parser.add_argument("--preset", choices=["quick", "paper"], default="quick",
                            help="marketplace scale per task (default: quick)")
    sim_parser.add_argument("--tasks", type=int, default=None,
                            help="override the number of concurrent tasks")
    sim_parser.add_argument("--owners", type=int, default=None,
                            help="override the owner count per task")
    sim_parser.add_argument("--epochs", type=int, default=None,
                            help="override local epochs per owner")
    sim_parser.add_argument("--seed", type=int, default=None,
                            help="override the random seed")
    sim_parser.add_argument("--stagger", type=float, default=None, metavar="SECONDS",
                            help="override the delay between task launches")
    sim_parser.add_argument("--network", default=None,
                            choices=sorted(NETWORK_PROFILES),
                            help="override the network profile")
    sim_parser.add_argument("--poison-fraction", type=float, default=None,
                            help="fraction of owners that label-flip poison")
    sim_parser.add_argument("--dropout-fraction", type=float, default=None,
                            help="fraction of owners that churn out mid-task")
    sim_parser.add_argument("--straggler-fraction", type=float, default=None,
                            help="fraction of owners that upload late")
    sim_parser.add_argument("--freerider-fraction", type=float, default=None,
                            help="fraction of owners that upload junk models")
    sim_parser.add_argument("--obs", action="store_true",
                            help="enable the repro.obs observability layer "
                                 "(spans, events, unified metrics; the saved "
                                 "report gains an 'obs' section)")
    sim_parser.add_argument("--save", default=None, metavar="PATH",
                            help="save the scenario report to a JSON file")

    serve_parser = subparsers.add_parser(
        "serve", help="serve the JSON-RPC gateway over HTTP/WebSocket (repro.net)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="interface to bind (default: 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8545,
                              help="TCP port; 0 binds an ephemeral port "
                                   "(default: 8545)")
    serve_parser.add_argument("--batch-verify", type=int, nargs="?", const=4,
                              default=None, metavar="W",
                              help="deferred signature verification with W "
                                   "verify workers (default W: 4; 0 = "
                                   "inline)")
    serve_parser.add_argument("--store", default=None, metavar="DIR",
                              help="persist the chain (WAL + snapshots) "
                                   "and IPFS blocks under DIR; a DIR that "
                                   "holds history is reopened")
    serve_parser.add_argument("--obs", action="store_true",
                              help="enable the repro.obs observability layer "
                                   "(GET /metrics then serves the full "
                                   "unified registry)")
    serve_parser.add_argument("--block-interval", type=float, default=0.5,
                              metavar="SECONDS",
                              help="producer cadence: mine pending "
                                   "transactions every interval; 0 disables "
                                   "the producer (mine via evm_mine) "
                                   "(default: 0.5)")
    serve_parser.add_argument("--max-connections", type=int, default=64,
                              help="global concurrent-socket cap (default: 64)")
    serve_parser.add_argument("--max-batch", type=int, default=100,
                              help="envelopes per batch, POSTed or sent over "
                                   "/ws (default: 100)")
    serve_parser.add_argument("--read-timeout", type=float, default=10.0,
                              metavar="SECONDS",
                              help="budget for reading one request (default: 10)")
    serve_parser.add_argument("--send-queue", type=int, default=256,
                              metavar="FRAMES",
                              help="frames a WebSocket may have waiting while "
                                   "its peer does not read; one more "
                                   "disconnects it (default: 256)")

    obs_parser = subparsers.add_parser(
        "obs", help="run an observed workload and inspect metrics/traces/events")
    obs_parser.add_argument("action", choices=["metrics", "trace", "top", "events"],
                            help="metrics: Prometheus text exposition; "
                                 "trace: one transaction's span tree; "
                                 "top: per-phase cost table; "
                                 "events: structured JSONL event log")
    obs_parser.add_argument("--scenario", default="flashcrowd",
                            choices=sorted(SCENARIOS),
                            help="simnet scenario to observe (default: "
                                 "flashcrowd)")
    obs_parser.add_argument("--seed", type=int, default=7,
                            help="deterministic seed (default: 7)")
    obs_parser.add_argument("--trace-id", default=None,
                            help="trace action: trace to render (default: a "
                                 "sampled transaction)")
    obs_parser.add_argument("--limit", type=int, default=20,
                            help="rows for the top/events actions (default: 20)")
    obs_parser.add_argument("--save-events", default=None, metavar="PATH",
                            help="also write the structured event log as JSONL")

    rpc_parser = subparsers.add_parser(
        "rpc", help="issue ad-hoc JSON-RPC calls against the gateway")
    rpc_parser.add_argument("method", nargs="?", default=None,
                            help="JSON-RPC method name (e.g. eth_blockNumber)")
    rpc_parser.add_argument("params", nargs="*",
                            help="params, each parsed as JSON (bare words stay strings)")
    rpc_parser.add_argument("--list", action="store_true", dest="list_methods",
                            help="list every method the gateway serves")
    rpc_parser.add_argument("--markdown", action="store_true",
                            help="with --list: render the full method reference "
                                 "as markdown (the source of docs/rpc.md)")
    rpc_parser.add_argument("--batch", default=None, metavar="JSON",
                            help="send a raw JSON-RPC envelope or batch array instead")
    rpc_parser.add_argument("--demo", action="store_true",
                            help="seed the chain with a tiny marketplace run first")
    rpc_parser.add_argument("--seed", type=int, default=7,
                            help="seed for the --demo marketplace (default: 7)")

    gas_parser = subparsers.add_parser("gas-report", help="print the Fig. 5 gas-fee analysis")
    gas_parser.add_argument("--owners", type=int, default=10)
    gas_parser.add_argument("--gas-price-gwei", type=float, default=1.0)

    quality_parser = subparsers.add_parser("model-quality",
                                           help="print the Fig. 4 / Fig. 6 model-quality analysis")
    quality_parser.add_argument("--owners", type=int, default=10)
    quality_parser.add_argument("--epochs", type=int, default=10)
    quality_parser.add_argument("--samples", type=int, default=20_000)
    quality_parser.add_argument("--seed", type=int, default=7)

    storage_parser = subparsers.add_parser(
        "storage", help="inspect, verify or compact a persistent store directory")
    storage_parser.add_argument("action", choices=["inspect", "verify", "compact"],
                                help="inspect: summarize WAL/snapshots/blobs; "
                                     "verify: replay the store and report the "
                                     "recovered head; compact: snapshot at the "
                                     "head and truncate the WAL")
    storage_parser.add_argument("directory", help="store directory (from run --store)")

    analytics_parser = subparsers.add_parser(
        "analytics", help="attach a columnar analytics replica to a store "
                          "directory and query it (repro.analytics)")
    analytics_parser.add_argument(
        "action", choices=["status", "query", "backfill"],
        help="status: replica freshness and per-table row counts; "
             "query: replica-served logs/leaderboard/fee summary with an "
             "OLTP-scan parity check; "
             "backfill: rebuild the columns from scratch off the WAL + "
             "archive")
    analytics_parser.add_argument("directory",
                                  help="store directory (from run --store)")
    analytics_parser.add_argument("--leaderboard", default="payments",
                                  choices=["payments", "submissions", "fees"],
                                  help="query: which leaderboard to print")
    analytics_parser.add_argument("--event", default=None, metavar="NAME",
                                  help="query: filter logs by event name "
                                       "(e.g. PaymentSent)")
    analytics_parser.add_argument("--limit", type=int, default=10,
                                  help="query: leaderboard rows (default: 10)")
    analytics_parser.add_argument("--json", action="store_true", dest="as_json",
                                  help="print the full result document as JSON")

    cluster_parser = subparsers.add_parser(
        "cluster", help="run a replication cluster and print its status")
    cluster_parser.add_argument("action", choices=["status"],
                                help="status: build a cluster, drive funded "
                                     "transfers through leader rotation and "
                                     "gossip, print the per-replica table")
    cluster_parser.add_argument("--replicas", type=int, default=3,
                                help="number of chain replicas (default: 3)")
    cluster_parser.add_argument("--blocks", type=int, default=4,
                                help="slots to drive before reporting")
    cluster_parser.add_argument("--txs", type=int, default=12,
                                help="funded transfers to submit (default: 12)")
    cluster_parser.add_argument("--profile", default="lan",
                                help="inter-replica link profile "
                                     "(ideal/lan/wan/lossy/flaky; default: lan)")
    cluster_parser.add_argument("--geo", action="store_true",
                                help="place each replica in its own region "
                                     "(inter-region gossip pays WAN latency)")
    cluster_parser.add_argument("--seed", type=int, default=7,
                                help="seed for link jitter/drops (default: 7)")
    cluster_parser.add_argument("--json", action="store_true", dest="as_json",
                                help="print the full status document as JSON")

    show_parser = subparsers.add_parser("show", help="summarize a saved report JSON")
    show_parser.add_argument("path", help="path to a report saved with 'run --save'")

    subparsers.add_parser("info", help="print version and subsystem inventory")
    return parser


def _command_run(args: argparse.Namespace) -> int:
    """Implement the ``run`` subcommand."""
    from repro.system import paper_config, quick_config, run_marketplace
    from repro.system.artifacts import save_report
    from repro.utils.units import format_ether

    overrides = {}
    if args.owners is not None:
        overrides["num_owners"] = args.owners
    if args.epochs is not None:
        overrides["local_epochs"] = args.epochs
    if args.aggregator is not None:
        overrides["aggregator"] = args.aggregator
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = paper_config(**overrides) if args.preset == "paper" else quick_config(**overrides)

    environment = None
    if args.store:
        from repro.errors import StorageError
        from repro.system.orchestrator import build_environment
        from repro.storage import StorageConfig

        try:
            environment = build_environment(
                config, storage=StorageConfig(backend="log", directory=args.store))
        except StorageError as error:
            # E.g. pointing a fresh run at a directory that already holds
            # another run's chain history.
            print(f"error: {error}", file=sys.stderr)
            return 2

    print(f"running the OFL-W3 marketplace ({args.preset} preset, "
          f"{config.num_owners} owners, aggregator={config.aggregator})...")
    try:
        report = run_marketplace(config, environment=environment)
    finally:
        # A failed run must still flush what it persisted (blob indexes are
        # lazy) so the store is post-mortem inspectable.
        if environment is not None:
            environment.stack.close()

    print(f"\naggregate accuracy ({report.aggregate_algorithm}): {report.aggregate_accuracy:.4f}")
    print(f"local accuracies: {[round(a, 3) for a in report.local_accuracies]}")
    print(f"margin over worst local: {report.accuracy_margin_over_worst:.4f}")
    print(f"total paid: {format_ether(report.total_paid_wei)} ETH "
          f"of {format_ether(report.config.budget_wei)} ETH budget")
    owner_time = report.owner_time_breakdown()
    print(f"owner time {owner_time.total:.0f}s, buyer time {report.buyer_breakdown.total:.0f}s "
          f"(blockchain dominates both)")
    if args.save:
        target = save_report(report, args.save)
        print(f"full report saved to {target}")
    if environment is not None:
        engine = environment.storage
        # Snapshot the final head so a later recovery restores instead of
        # re-executing the whole run.
        chain = environment.node.chain
        chain.store.snapshot(chain)
        pointer = engine.snapshots.latest_pointer()
        print(f"chain persisted to {args.store} "
              f"(snapshot at height {pointer['height']}, "
              f"head {pointer['head_hash'][:18]}...); "
              f"inspect with: python -m repro storage inspect {args.store}")
        engine.close()
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    """Implement the ``simulate`` subcommand."""
    from repro.errors import ReproError
    from repro.simnet import ScenarioRunner, build_scenario
    from repro.system import paper_config, quick_config

    config_overrides = {}
    if args.owners is not None:
        config_overrides["num_owners"] = args.owners
    if args.epochs is not None:
        config_overrides["local_epochs"] = args.epochs
    if args.seed is not None:
        config_overrides["seed"] = args.seed
    config = (paper_config(**config_overrides) if args.preset == "paper"
              else quick_config(**config_overrides))

    spec_overrides = {}
    if args.tasks is not None:
        spec_overrides["num_tasks"] = args.tasks
    if args.stagger is not None:
        spec_overrides["task_stagger_seconds"] = args.stagger
    if args.network is not None:
        spec_overrides["network_profile"] = args.network
    fraction_flags = {
        "poisoner": args.poison_fraction,
        "dropout": args.dropout_fraction,
        "straggler": args.straggler_fraction,
        "free_rider": args.freerider_fraction,
    }
    if any(value is not None for value in fraction_flags.values()):
        spec = build_scenario(args.scenario)
        fractions = dict(spec.behavior_fractions)
        for archetype, value in fraction_flags.items():
            if value is not None:
                if value > 0:
                    fractions[archetype] = value
                else:
                    fractions.pop(archetype, None)
        spec_overrides["behavior_fractions"] = fractions

    try:
        spec = build_scenario(args.scenario, **spec_overrides)
        print(f"simulating scenario {spec.name!r}: {spec.description}")
        print(f"  {spec.num_tasks} task(s) x {config.num_owners} owners, "
              f"network={spec.network_profile}, "
              f"submissions={'async' if spec.async_submissions else 'sync'}, "
              f"seed={config.seed}")
        runner = ScenarioRunner(spec, config=config, observability=args.obs)
        report = runner.run()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print()
    print(report.summary())
    if args.save:
        from repro.system.artifacts import save_json

        # save_json sorts keys at every nesting level, so two identical runs
        # write byte-identical files and saved reports diff cleanly.
        target = save_json(report.to_dict(), args.save)
        print(f"\nscenario report saved to {target}")
    return 0 if report.tasks_failed == 0 else 3


def _command_serve(args: argparse.Namespace) -> int:
    """Implement the ``serve`` subcommand: boot, print the port, run until
    SIGTERM/SIGINT, then drain gracefully."""
    import asyncio
    import signal

    from repro.errors import ReproError
    from repro.net import NetConfig, build_serve_stack

    try:
        config = NetConfig(
            host=args.host,
            port=args.port,
            max_connections=args.max_connections,
            max_batch=args.max_batch,
            read_timeout_seconds=args.read_timeout,
            send_queue_frames=args.send_queue,
            block_interval_seconds=args.block_interval,
        )
        server = build_serve_stack(
            config,
            batch_verify=args.batch_verify,
            store=args.store,
            obs=args.obs,
            logger=lambda message: print(f"[serve] {message}", flush=True),
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    async def _serve() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # platforms without signal support: Ctrl-C raises instead
        await server.run(stop)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _command_obs(args: argparse.Namespace) -> int:
    """Implement the ``obs`` subcommand (metrics / trace / top / events)."""
    import json

    from repro.errors import ReproError

    try:
        from repro.simnet import ScenarioRunner, build_scenario
        from repro.system import quick_config

        spec = build_scenario(args.scenario)
        print(f"observing scenario {spec.name!r} (seed {args.seed})...",
              file=sys.stderr)
        runner = ScenarioRunner(spec, config=quick_config(seed=args.seed),
                                observability=True)
        runner.run()
        obs = runner.obs
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.save_events:
        target = obs.event_log.write(args.save_events)
        print(f"event log saved to {target}", file=sys.stderr)

    if args.action == "metrics":
        print(obs.registry.render_prometheus(), end="")
        return 0
    if args.action == "trace":
        trace_id = args.trace_id or obs.sample_trace_id()
        if trace_id is None or not obs.tracer.spans_for(trace_id):
            print("error: no matching trace recorded", file=sys.stderr)
            return 3
        print(obs.tracer.render(trace_id))
        return 0
    if args.action == "top":
        print(obs.profiler.render_top(args.limit))
        return 0
    for event in obs.event_log.events(limit=args.limit):
        print(json.dumps(event, sort_keys=True))
    return 0


def _command_rpc(args: argparse.Namespace) -> int:
    """Implement the ``rpc`` subcommand."""
    import json

    if args.demo:
        from repro.system import quick_config, run_marketplace
        from repro.system.orchestrator import build_environment

        config = quick_config(num_owners=2, num_samples=400, local_epochs=1,
                              seed=args.seed)
        print(f"seeding the chain with a tiny marketplace run (seed {args.seed})...",
              file=sys.stderr)
        environment = build_environment(config)
        run_marketplace(environment=environment)
        gateway = environment.gateway
    else:
        from repro.system.stack import build_stack

        gateway = build_stack().gateway

    if args.list_methods:
        if args.markdown:
            from repro.rpc.docs import rpc_reference_markdown

            # The reference documents the *fully loaded* surface (backend and
            # storage namespaces mounted), independent of --demo.
            print(rpc_reference_markdown(), end="")
            return 0
        for name in gateway.methods():
            print(name)
        return 0

    if args.batch is not None:
        try:
            payload = json.loads(args.batch)
        except ValueError as error:
            print(f"error: --batch is not valid JSON: {error}", file=sys.stderr)
            return 2
        response = gateway.handle(payload)
    elif args.method is not None:
        params = []
        for raw in args.params:
            try:
                params.append(json.loads(raw))
            except ValueError:
                params.append(raw)  # bare words (addresses, CIDs) stay strings
        response = gateway.handle(
            {"jsonrpc": "2.0", "id": 1, "method": args.method, "params": params})
    else:
        print("error: give a method, --batch, or --list", file=sys.stderr)
        return 2

    print(json.dumps(response, indent=2, sort_keys=True, default=str))
    failed = ("error" in response if isinstance(response, dict)
              else any("error" in entry for entry in response or []))
    return 1 if failed else 0


def _run_gas_report(owners: int, gas_price_gwei: float) -> int:
    """Print the gas-fee table (shared by the CLI and tests)."""
    from repro.chain import EthereumNode, Faucet, KeyPair
    from repro.contracts import default_registry
    from repro.system.costs import build_gas_cost_report, estimate_onchain_model_storage_gas
    from repro.utils.units import ether_to_wei, format_ether, gwei_to_wei

    gas_price = gwei_to_wei(str(gas_price_gwei))
    node = EthereumNode(backend=default_registry())
    faucet = Faucet(node)
    buyer = KeyPair.from_label("cli-gas-buyer")
    faucet.drip(buyer.address, ether_to_wei(2))

    spec = {"task": "digit-classification", "model": [784, 100, 10], "max_owners": owners}
    deployment = node.wait_for_receipt(
        node.deploy_contract(buyer, "FLTask", [spec], value=ether_to_wei("0.01"),
                             gas_price=gas_price)
    )
    task = deployment.contract_address
    for index in range(owners):
        keys = KeyPair.from_label(f"cli-gas-owner-{index}")
        faucet.drip(keys.address, ether_to_wei("0.05"))
        node.wait_for_receipt(
            node.transact_contract(keys, task, "registerOwner", [], gas_price=gas_price))
        node.wait_for_receipt(
            node.transact_contract(keys, task, "uploadCid", [f"Qm{index:044d}"],
                                   gas_price=gas_price))
        node.wait_for_receipt(
            node.transact_contract(buyer, task, "payOwner",
                                   [keys.address, ether_to_wei("0.01") // owners],
                                   gas_price=gas_price))

    report = build_gas_cost_report(node.chain)
    print(f"{'category':<26}{'count':>6}{'mean gas':>14}{'mean fee (ETH)':>18}")
    for name, row in sorted(report.rows.items(), key=lambda kv: -kv[1].mean_fee_wei):
        print(f"{name:<26}{row.count:>6}{row.mean_gas:>14,.0f}{row.mean_fee_eth:>18}")
    estimate = estimate_onchain_model_storage_gas(318_132)
    print(f"\nCID on-chain: {estimate['cid_storage_gas']:,} gas "
          f"({format_ether(estimate['cid_storage_gas'] * gas_price)} ETH); "
          f"whole model on-chain: {estimate['model_storage_gas']:,} gas "
          f"({format_ether(estimate['model_storage_gas'] * gas_price)} ETH); "
          f"ratio {estimate['gas_ratio']:.0f}x")
    return 0


def _run_model_quality(owners: int, epochs: int, samples: int, seed: int) -> int:
    """Print the Fig. 4 / Fig. 6 series of one paper-preset marketplace run."""
    from repro.system import paper_config, run_marketplace

    report = run_marketplace(paper_config(num_owners=owners, local_epochs=epochs,
                                          num_samples=samples, seed=seed))
    for index, accuracy in enumerate(report.local_accuracies):
        print(f"owner {index}: local accuracy {accuracy:.4f}")
    print(f"aggregate ({report.aggregate_algorithm}): {report.aggregate_accuracy:.4f} "
          f"(margin over worst local {report.accuracy_margin_over_worst:+.4f})")
    for index, accuracy in enumerate(report.drop_accuracies):
        print(f"drop owner {index}: accuracy {accuracy:.4f}")
    least_useful = report.least_useful_owner
    print(f"least useful owner: {report.owner_addresses.index(least_useful)} ({least_useful})")
    return 0


def _command_storage(args: argparse.Namespace) -> int:
    """Implement the ``storage`` subcommand (inspect / verify / compact)."""
    import json
    from pathlib import Path

    from repro.contracts import default_registry
    from repro.errors import ReproError
    from repro.storage import StorageConfig, StorageEngine, compact_store, verify_store

    directory = Path(args.directory)
    # Require an actual store marker, not mere existence: opening an
    # arbitrary directory would silently mkdir wal/blobs/meta inside it.
    if not directory.is_dir() or not (directory / "wal").is_dir():
        print(f"error: {args.directory} is not a store directory", file=sys.stderr)
        return 2
    engine = StorageEngine(StorageConfig(backend="log", directory=args.directory))
    try:
        if args.action == "inspect":
            print(json.dumps(engine.describe(), indent=2, sort_keys=True))
            return 0
        if args.action == "verify":
            result = verify_store(engine, backend=default_registry())
            print(json.dumps(result, indent=2, sort_keys=True))
            return 0
        result = compact_store(engine, backend=default_registry())
        print(f"compacted WAL: {sum(result['before'].values())} -> "
              f"{sum(result['after'].values())} entries "
              f"(snapshot at height {result['snapshot']['height']})")
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    finally:
        engine.close()


def _command_analytics(args: argparse.Namespace) -> int:
    """Implement the ``analytics`` subcommand (status / query / backfill)."""
    import json
    from pathlib import Path

    from repro.analytics import attach_analytics, scan_leaderboard
    from repro.chain.events import LogFilter
    from repro.chain.explorer import Explorer
    from repro.contracts import default_registry
    from repro.errors import ReproError
    from repro.storage import StorageConfig, StorageEngine
    from repro.storage.engine import recover_chain

    directory = Path(args.directory)
    if not directory.is_dir() or not (directory / "wal").is_dir():
        print(f"error: {args.directory} is not a store directory", file=sys.stderr)
        return 2
    engine = StorageEngine(StorageConfig(backend="log", directory=args.directory))
    try:
        chain = recover_chain(engine, backend=default_registry())
        feeder = attach_analytics(chain)

        if args.action == "backfill":
            result = feeder.backfill()
            print(f"backfilled {result['blocks_applied']} block(s) from the "
                  f"WAL + archive (height {result['height']}, "
                  f"applied_seq {result['applied_seq']})")
            if args.as_json:
                print(json.dumps(feeder.status(), indent=2, sort_keys=True))
            return 0

        if args.action == "status":
            status = feeder.status()
            if args.as_json:
                print(json.dumps(status, indent=2, sort_keys=True))
                return 0
            print(f"analytics replica over {args.directory}: "
                  f"height={status['height']} "
                  f"applied_seq={status['applied_seq']} "
                  f"wal_last_seq={status['wal_last_seq']} "
                  f"lag={status['lag_entries']}")
            print(f"tables: transactions={status['transactions']} "
                  f"logs={status['logs']} addresses={status['addresses']} "
                  f"event_names={status['event_names']}")
            print(f"counters: rollbacks={status['rollbacks']} "
                  f"queries={status['queries']}")
            return 0

        # query: replica-served reads, parity-checked against the OLTP scan
        # path on the same recovered chain (the feeder is detached for the
        # scan so the comparison exercises the seed code, not the replica).
        log_filter = (LogFilter(event_name=args.event) if args.event
                      else LogFilter())
        replica_logs = [log.to_dict() for log in feeder.logs(log_filter)]
        replica_board = feeder.leaderboard(args.leaderboard, args.limit)
        replica_fees = feeder.fee_summary_by_kind()
        chain.analytics = None
        try:
            scan_logs = [log.to_dict() for log in chain.logs(log_filter)]
            scan_board = scan_leaderboard(chain, args.leaderboard, args.limit)
            scan_fees = Explorer(chain).fee_summary_by_kind()
        finally:
            chain.analytics = feeder
        parity = (replica_logs == scan_logs and replica_board == scan_board
                  and replica_fees == scan_fees)
        if args.as_json:
            print(json.dumps({"logs": replica_logs,
                              "leaderboard": replica_board,
                              "fee_summary": replica_fees,
                              "parity": "ok" if parity else "failed"},
                             indent=2, sort_keys=True))
            return 0 if parity else 3
        print(f"{len(replica_logs)} log(s) match"
              + (f" event={args.event}" if args.event else ""))
        print(f"leaderboard {args.leaderboard!r} (top {args.limit}):")
        value_key = {"payments": "total_wei", "submissions": "submissions",
                     "fees": "total_fees_paid_wei"}[args.leaderboard]
        for rank, row in enumerate(replica_board, start=1):
            print(f"  {rank:>2}. {row['address']}  {value_key}={row[value_key]}")
        print("fee summary by kind:")
        for kind, row in replica_fees.items():
            print(f"  {kind}: count={row['count']} "
                  f"mean_fee_wei={row['mean_fee_wei']:.0f} "
                  f"mean_gas_used={row['mean_gas_used']:.0f}")
        print(f"parity={'ok' if parity else 'FAILED'} "
              f"(replica vs OLTP scan: logs, leaderboard, fee summary)")
        return 0 if parity else 3
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    finally:
        engine.close()


def _command_cluster(args: argparse.Namespace) -> int:
    """Implement the ``cluster`` subcommand (status)."""
    import json

    from repro.errors import ReproError
    from repro.chain.keys import KeyPair
    from repro.cluster import ClusterConfig
    from repro.system.stack import build_stack
    from repro.utils.units import ether_to_wei

    try:
        config = ClusterConfig(
            replicas=args.replicas,
            network_profile=args.profile,
            regions=tuple(range(args.replicas)) if args.geo else None,
            seed=args.seed,
        )
        stack = build_stack(cluster=config)
        cluster, node, faucet = stack.cluster, stack.node, stack.faucet
        senders = [KeyPair.from_label(f"cluster-cli-{index}")
                   for index in range(min(4, max(1, args.txs)))]
        for keypair in senders:
            faucet.drip(keypair.address, ether_to_wei(1))
        sink = KeyPair.from_label("cluster-cli-sink").address
        for index in range(max(0, args.txs)):
            node.sign_and_send(senders[index % len(senders)], to=sink, value=1_000)
        for _ in range(max(1, args.blocks)):
            cluster.tick(force=True)
        cluster.converge()
        status = cluster.status()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.as_json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    print(f"cluster: {config.replicas} replicas, links={args.profile}"
          f"{' (geo regions)' if args.geo else ''}, "
          f"leader={status['leader']}, "
          f"{'converged' if status['converged'] else 'DIVERGED'}, "
          f"finalized height {status['finalized_height']}")
    header = (f"{'replica':<12}{'alive':<7}{'height':>7}{'produced':>10}"
              f"{'reorgs':>8}{'mempool':>9}  head")
    print(header)
    print("-" * len(header))
    for row in status["replicas"]:
        print(f"{row['name']:<12}{str(row['alive']).lower():<7}"
              f"{row['height']:>7}{row['blocks_produced']:>10}"
              f"{row['fork']['reorgs']:>8}{row['mempool_depth']:>9}"
              f"  {row['head_hash'][:18]}...")
    gossip = status["gossip"]
    print(f"gossip: {gossip['tx_floods']} tx floods "
          f"({gossip['tx_delivered']} delivered), "
          f"{gossip['announces']} announces, "
          f"{gossip['blocks_fetched']} blocks fetched, "
          f"{gossip['reorgs_triggered']} gossip-triggered reorg(s)")
    return 0 if status["converged"] else 3


def _command_show(path: str) -> int:
    """Implement the ``show`` subcommand."""
    from repro.system.artifacts import load_report, summarize_report

    payload = load_report(path)
    print(summarize_report(payload))
    return 0


def _command_info() -> int:
    """Implement the ``info`` subcommand."""
    from repro.chain.keys import ed25519_backend

    print(f"repro {__version__} - OFL-W3 reproduction")
    print("subsystems: chain, contracts, ipfs, ml, data, fl, incentives, web, rpc, "
          "storage, system, simnet, loadgen, cluster, obs, analytics, net")
    print("entry points: repro.system.run_marketplace, repro.web.BuyerDApp / OwnerDApp, "
          "repro.rpc.MarketplaceClient, repro.storage.recover_node, "
          "repro.cluster.ChainCluster, repro.analytics.attach_analytics, "
          "repro.net.build_serve_stack")
    print("docs: README.md, docs/architecture.md, docs/rpc.md, docs/simnet.md, "
          "docs/cli.md, docs/performance.md, docs/observability.md, "
          "docs/analytics.md, docs/networking.md")
    print(f"ed25519: {ed25519_backend()}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    from repro.errors import ConfigError, PartitionError

    try:
        if args.command == "run":
            return _command_run(args)
        if args.command == "simulate":
            return _command_simulate(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "obs":
            return _command_obs(args)
        if args.command == "rpc":
            return _command_rpc(args)
        if args.command == "storage":
            return _command_storage(args)
        if args.command == "analytics":
            return _command_analytics(args)
        if args.command == "cluster":
            return _command_cluster(args)
        if args.command == "gas-report":
            return _run_gas_report(args.owners, args.gas_price_gwei)
        if args.command == "model-quality":
            return _run_model_quality(args.owners, args.epochs, args.samples, args.seed)
        if args.command == "show":
            return _command_show(args.path)
        if args.command == "info":
            return _command_info()
    except (ConfigError, PartitionError) as error:
        # A bad --owners / --epochs / --samples: OFLW3Config and the
        # partitioner are the only checks, so their message is the CLI's.
        print(f"error: {error}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
