#!/usr/bin/env python3
"""The repository's benchmark: one command, five workloads, every metric.

    python bench/run.py                      all workloads, end-to-end metrics
    python bench/run.py --trace              ... plus the per-layer table
    python bench/run.py --runs 5 --out A.json    add five runs to the set A.json
    python bench/run.py --workload W --seed N --seconds S --trace 0|1
                                             one run; last line is its JSON

End-to-end metrics come from untraced repetitions only.  ``--trace 1`` runs
one untraced repetition (the client's view, the child-server numbers and the
socket differential), for a wire workload one more with the stack hosted in
this process (the base of ``trace.overhead``), and one with ``bench/trace.py``
installed, and reports the per-layer metrics.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402 - after the path line above

SRC = os.path.join(spec.ROOT, "src")
OUT = os.path.join(HERE, "out")


def percentile(samples: Sequence[float], rank: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(rank / 100.0 * len(ordered)) - 1)]


# -- one run of one workload ---------------------------------------------------


def _context(args: argparse.Namespace, rep: int, size: str, work_dir: str, **flags: Any):
    import workloads

    return workloads.Context(
        seed=args.seed, rep=rep, size=spec.SIZES[args.workload][size], src_dir=SRC,
        work_dir=work_dir, **flags)


def _warm_up(args: argparse.Namespace, size: str, work_dir: str, hosted: bool = False) -> None:
    """Let caches fill and the heap grow before anything is timed, wherever
    the measured stack lives in this process: ``ingest``, ``marketplace`` and
    the traced wire passes.  An untraced wire repetition boots a fresh server
    process, whose first requests are as cold as a user's."""
    import workloads

    if args.smoke:
        return
    if args.workload == "marketplace":
        workloads.marketplace(_context(args, -1, size, work_dir))
    elif args.workload == "ingest" or hosted:
        workloads.RUNNERS[args.workload](
            _context(args, -1, "smoke", work_dir, in_process=hosted))


def _fold_checks(reps: Sequence[Any]) -> Dict[str, Any]:
    problems = [problem for rep in reps for problem in rep.problems]
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    fingerprints = {repr(rep.fingerprint) for rep in reps}
    attempted += 1
    if len(fingerprints) > 1:
        failed += 1
        problems.append(f"outputs differ between repetitions of one seed: {sorted(fingerprints)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "problems": problems[:10]}


def _result(checks: Dict[str, Any], metrics: Sequence[Dict[str, Any]],
            values: Dict[str, float], detail: Dict[str, Any]) -> Dict[str, Any]:
    checks["metrics"] = {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                         for metric in metrics}
    checks["detail"] = detail
    return checks


def run_end_to_end(args: argparse.Namespace, work_dir: str) -> Dict[str, Any]:
    import workloads

    size = "smoke" if args.smoke else "full"
    runner = workloads.RUNNERS[args.workload]
    count = args.reps or spec.repetitions(args.workload, args.seconds,
                                          args.manifest["run_seconds"])
    _warm_up(args, size, work_dir)
    reps = [runner(_context(args, index, size, work_dir)) for index in range(count)]

    # Interference in this sandbox only ever slows the program down, in
    # spells of hundredths of a second to minutes, so what the driver holds to
    # a bound is the quietest of a fixed number of timed rounds: a repetition's
    # whole timed section, or each of the equal rounds it is cut into.  See
    # README.md.
    rounds = [rep.rounds or [(rep.ops, rep.wall_s, percentile(rep.op_latency, 50))]
              for rep in reps]
    rates = [max(ops / wall_s for ops, wall_s, _p50 in each) for each in rounds]
    medians = [min(p50 for _ops, _wall_s, p50 in each) * 1e3 for each in rounds]
    values = {
        "setup_s": min(rep.setup_s for rep in reps),
        "ops_per_s": max(rates),
        "op_ms_p50": min(medians),
        "peak_rss_mb": max(rep.peak_rss_mb for rep in reps),
    }
    checks = _fold_checks(reps)
    units = {metric["name"]: metric["unit"] for metric in args.manifest["per_layer"]}
    print(f"{args.workload}: seed {args.seed}, {count} repetitions, "
          f"{sum(rep.wall_s for rep in reps):.2f} s timed, C={spec.connections()}, "
          f"nproc={os.cpu_count()}")
    for index, rep in enumerate(reps):
        print(f"  repetition {index}: setup {rep.setup_s:.4f} s, wall {rep.wall_s:.4f} s, "
              f"{rep.ops / rep.wall_s:.2f} ops/s, p50 "
              f"{percentile(rep.op_latency, 50) * 1e3:.4f} ms (n={len(rep.op_latency)}), "
              f"quietest of {len(rounds[index])} rounds {rates[index]:.2f} ops/s, "
              f"p50 {medians[index]:.4f} ms, rss {rep.peak_rss_mb:.1f} MB")
    named: Dict[str, float] = {}
    for name in reps[0].named:
        per_rep = [rep.named[name] for rep in reps]
        named[name] = statistics.median(per_rep)
        print(f"  {name:13s}{named[name]:12.4f} {units[name]:5s} median of n={count} "
              f"(min {min(per_rep):.4f}, max {max(per_rep):.4f})")
    for kind in reps[0].split:
        pooled = [sample for rep in reps for sample in rep.split[kind]]
        for rank in (50, 99):
            name = f"{kind}_ms_p{rank}"
            named[name] = percentile(pooled, rank) * 1e3
            print(f"  {name:13s}{named[name]:12.4f} ms    pooled, n={len(pooled)}")
    print(f"  failed_share {checks['failed']}/{checks['attempted']}")
    every = [one for each in rounds for one in each]
    every_rate = [ops / wall_s for ops, wall_s, _p50 in every]
    every_p50 = [p50 * 1e3 for _ops, _wall_s, p50 in every]
    print(f"  -- held to a bound: the quietest of the {count} set-ups and of the "
          f"{len(every)} timed rounds")
    print(f"  setup_s      {values['setup_s']:12.4f} s     lowest of n={count} "
          f"(median {statistics.median(rep.setup_s for rep in reps):.4f})")
    print(f"  ops_per_s    {values['ops_per_s']:12.4f} 1/s   fastest of n={len(every)} "
          f"(median {statistics.median(every_rate):.4f}, slowest {min(every_rate):.4f})")
    print(f"  op_ms_p50    {values['op_ms_p50']:12.4f} ms    lowest of n={len(every)} medians "
          f"(median {statistics.median(every_p50):.4f}, highest {max(every_p50):.4f})")
    print(f"  peak_rss_mb  {values['peak_rss_mb']:12.2f} MB    highest of n={count}")
    share = (sum(rep.client_cpu_s for rep in reps)
             / max(1e-9, sum(rep.driven_wall_s for rep in reps)))
    if args.workload.startswith("wire") and share > 0.5:
        print(f"  warning: the benchmark process used {share:.2f} of a CPU while driving; "
              "the numbers may measure the generator")
    if args.workload == "marketplace":
        print(f"  model        owners {reps[0].extras['model_owner_s']:.3f} s, buyer "
              f"{reps[0].extras['model_buyer_s']:.3f} s simulated (LatencyModel, not wall)")
    detail = {"named": named, "setup_s": [rep.setup_s for rep in reps],
              "ops_per_s": rates, "op_ms_p50": medians}
    return _result(checks, args.manifest["end_to_end"], values, detail)


def run_traced(args: argparse.Namespace, work_dir: str) -> Dict[str, Any]:
    import trace as bench_trace
    import workloads

    size = "smoke" if args.smoke else "trace"
    runner = workloads.RUNNERS[args.workload]
    wire_workload = args.workload.startswith("wire")
    _warm_up(args, size, work_dir)
    # The client's view, the child-server numbers and the socket differential
    # come from an untraced repetition like the end-to-end ones.  A wire
    # workload's traced repetition hosts the stack in this process, so the base
    # of ``trace.overhead`` is an untraced repetition hosted the same way, and
    # both follow a hosted warm-up.
    plain = runner(_context(args, 0, size, work_dir, differential=True))
    base = plain
    if wire_workload:
        _warm_up(args, size, work_dir, hosted=True)
        base = runner(_context(args, 1, size, work_dir, in_process=True))

    # Everything a traced repetition touches is imported before the wrappers
    # go in, so that names imported from one module into another are found.
    import repro.net  # noqa: F401
    import repro.storage  # noqa: F401
    import repro.system.orchestrator  # noqa: F401

    tracer = bench_trace.Tracer()
    extra = [workloads.aggregator_target(_context(args, 2, size, work_dir))]
    tracer.install(extra)
    try:
        traced = runner(_context(args, 2, size, work_dir, in_process=wire_workload))
    finally:
        tracer.restore()

    everything = tracer.table()
    timed = tracer.table(traced.windows)
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"trace-{args.workload}.json"), args.workload, traced.wall_s)

    def self_s(*names: str) -> float:
        return sum(timed[name]["self_s"] for name in names if name in timed)

    def count(name: str, field: str = "spans") -> float:
        return timed[name][field] if name in timed else 0

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    def split_ms(kind: str, rank: float) -> float:
        samples = plain.split.get(kind)
        return percentile(samples, rank) * 1e3 if samples else 0.0

    attributed = sum(row["self_s"] for row in timed.values())
    rpc_s = self_s("rpc.json", "rpc.dispatch")
    values = {
        "chain.verify_s": self_s("chain.verify"),
        "chain.verify_calls": count("chain.verify"),
        "chain.verify_per_tx": ratio(count("chain.verify"), count("chain.submit")),
        "chain.submit_s": self_s("chain.submit"),
        "chain.mempool_add_s": self_s("chain.mempool_add"),
        "chain.select_s": self_s("chain.select"),
        "chain.execute_s": self_s("chain.execute"),
        "chain.execute_calls": count("chain.execute"),
        "chain.produce_s": self_s("chain.produce"),
        "chain.blocks": count("chain.produce"),
        "chain.txs_per_block": ratio(count("chain.execute"), count("chain.produce")),
        "chain.read_s": self_s("chain.read"),
        "storage.wal_append_s": self_s("storage.wal_append"),
        "storage.wal_appends": count("storage.wal_append"),
        "storage.bytes_per_tx": plain.extras.get("store_bytes_per_tx", 0.0),
        "rpc.calls": count("rpc.dispatch", "count"),
        "rpc.json_s": self_s("rpc.json"),
        "rpc.dispatch_s": self_s("rpc.dispatch"),
        "rpc.us_per_call": ratio(rpc_s * 1e6, count("rpc.dispatch", "count")),
        "net.us_per_req": plain.extras.get("net_us_per_req", 0.0),
        "net.batch_gain": plain.extras.get("batch_gain", 0.0),
        "net.requests_total": plain.extras.get("requests_total", 0.0),
        "ipfs.add_s": self_s("ipfs.add"),
        "ipfs.add_calls": count("ipfs.add"),
        "ipfs.cat_s": self_s("ipfs.cat"),
        "ipfs.cat_calls": count("ipfs.cat"),
        "ipfs.stored_per_byte": traced.extras.get("stored_per_byte", 0.0),
        "fl.aggregate_s": self_s("fl.aggregate"),
        "fl.aggregate_calls": count("fl.aggregate"),
        "incentives.loo_s": self_s("incentives.loo"),
        "incentives.value_calls": tracer.count_under("fl.aggregate", "incentives.loo"),
        "incentives.pay_s": self_s("incentives.allocate", "incentives.pay"),
        "ml.train_s": self_s("ml.train"),
        "ml.train_calls": count("ml.train"),
        "ml.evaluate_s": self_s("ml.evaluate"),
        "data.generate_s": everything.get("data.generate", {}).get("self_s", 0.0),
        "web.backend_s": self_s("web.backend"),
        "system.self_s": self_s("system.task"),
        "accel.default_off_calls": sum(
            row["spans"] for name, row in everything.items() if name.startswith("accel.")),
        "tx_per_s": plain.named.get("tx_per_s", 0.0),
        "req_per_s": plain.named.get("req_per_s", 0.0),
        "mb_per_s": plain.named.get("mb_per_s", 0.0),
        "write_ms_p50": split_ms("write", 50),
        "write_ms_p99": split_ms("write", 99),
        "read_ms_p50": split_ms("read", 50),
        "read_ms_p99": split_ms("read", 99),
        "task_wall_s": plain.named.get("task_wall_s", 0.0),
        "recover_s": plain.named.get("recover_s", 0.0),
        "loadgen.client_cpu_share": ratio(plain.client_cpu_s, plain.driven_wall_s)
        if wire_workload else 0.0,
        "trace.spans": tracer.span_count(),
        "trace.wall_s": traced.wall_s,
        "trace.overhead": traced.wall_s / base.wall_s,
        "trace.unattributed_s": traced.wall_s - attributed,
    }

    print(f"{args.workload}: seed {args.seed}, traced wall {traced.wall_s:.3f} s, "
          f"untraced {base.wall_s:.3f} s"
          + (" (both with the stack hosted on a thread of this process)"
             if wire_workload else ""))
    print(f"  {'span':22s} {'self_s':>10s} {'share':>7s} {'spans':>8s}")
    for name, row in sorted(timed.items(), key=lambda item: -item[1]["self_s"]):
        print(f"  {name:22s} {row['self_s']:10.4f} {row['self_s'] / traced.wall_s:7.1%} "
              f"{row['spans']:8d}")
    print(f"  {'(unattributed)':22s} {values['trace.unattributed_s']:10.4f} "
          f"{values['trace.unattributed_s'] / traced.wall_s:7.1%}")
    for metric in args.manifest["per_layer"]:
        value = values[metric["name"]]
        if value:
            print(f"  {metric['name']:28s} {value:14.4f} {metric['unit']}")
    if values["accel.default_off_calls"]:
        print("  note: a default-off accelerator was entered: "
              + ", ".join(name for name in everything if name.startswith("accel.")))
    if values["loadgen.client_cpu_share"] > 0.5:
        print("  warning: the benchmark process used more than half a CPU while driving")

    checks = _fold_checks([plain, traced] if base is plain else [plain, base, traced])
    return _result(checks, args.manifest["per_layer"], values, {})


def run_one(args: argparse.Namespace) -> int:
    """One workload in this process.  The last line printed is the result;
    the line before it carries what the result's fixed keys have no room for."""
    if any(os.environ.get(name) != value for name, value in spec.PINNED_ENV.items()):
        # The allocator and BLAS read their settings at start-up.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  {**os.environ, **spec.PINNED_ENV})
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC} holds no repro package to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work_dir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        result = (run_traced if args.trace else run_end_to_end)(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in result.pop("problems"):
        print(f"  FAILED: {problem}")
    print("detail " + json.dumps(result.pop("detail")))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- all workloads ---------------------------------------------------------------


def machine() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "-C", spec.ROOT, "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {"nproc": os.cpu_count(), "connections": spec.connections(),
            "python": platform.python_version(), "numpy": numpy_version, "commit": commit,
            "pinned_env": spec.PINNED_ENV}


def _child_run(args: argparse.Namespace, name: str, seed: int, trace: int
               ) -> Optional[Dict[str, Any]]:
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    if args.reps is not None:
        command += ["--reps", str(args.reps)]
    began = time.perf_counter()
    child = subprocess.run(command, env={**os.environ, **spec.PINNED_ENV},
                           stdout=subprocess.PIPE, text=True)
    lines = child.stdout.strip().splitlines()
    print("\n".join(lines[:-2]))
    try:
        result = json.loads(lines[-1])
        result["detail"] = json.loads(lines[-2].split(" ", 1)[1])
    except (IndexError, ValueError):
        print(f"  FAILED: {name} printed no result (exit {child.returncode})")
        return None
    result["correct"] = result["correct"] and child.returncode == 0
    result["seed"] = seed
    result["process_s"] = time.perf_counter() - began
    print(f"  whole process {result['process_s']:.1f} s")
    return result


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own child interpreter, so peak RSS and the
    program's caches never leak from one workload into the next.  With
    ``--runs`` the workloads take turns, so the runs of each one are spread
    over the whole session and a slow stretch of the machine hits them all
    alike.  ``--out`` adds to the set already in the file, so that two sets
    can be taken turn and turn about."""
    names = spec.workload_names(args.manifest)
    document: Dict[str, Any] = {"machine": machine(), "run_seconds": args.seconds,
                                "smoke": args.smoke, "runs": {}, "per_layer": {}}
    if args.out and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as handle:
            document = json.load(handle)
    print(f"machine: {json.dumps(document['machine'])}")
    results = []
    for run in range(args.runs):
        for name in names:
            results.append(_child_run(args, name, args.seed + run, 0))
            if results[-1] is not None:
                document["runs"].setdefault(name, []).append(results[-1])
    if args.trace:
        for name in names:
            results.append(_child_run(args, name, args.seed, 1))
            if results[-1] is not None:
                document["per_layer"][name] = results[-1]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
        print(f"results written to {args.out}")
    return 0 if all(result is not None and result["correct"] for result in results) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    manifest = spec.manifest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.workload_names(manifest),
                        help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=7,
                        help="labels key pairs, payload bytes and OFLW3Config.seed")
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"],
                        help="timed seconds a run is sized for: scales the repetition count")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=[0, 1],
                        help="1: report the per-layer metrics from a traced repetition")
    parser.add_argument("--reps", type=int, default=None,
                        help="exactly this many repetitions, whatever --seconds says")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repetition (tier-1's check)")
    parser.add_argument("--runs", type=int, default=1,
                        help="all workloads: runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--out", help="all workloads: add the results to this JSON file")
    args = parser.parse_args(argv)
    args.manifest = manifest
    if args.smoke and args.reps is None:
        args.reps = 1
    if args.workload is not None:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
