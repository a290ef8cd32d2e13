#!/usr/bin/env python3
"""The entry-point reach ledger: which ``src/`` functions does a user path run?

    PYTHONPATH=src python tests/tools/reach.py           drive the table, check the ledger
    PYTHONPATH=src python tests/tools/reach.py --write   drive the table, rewrite the ledger
    PYTHONPATH=src python tests/tools/reach.py --out F   ... and write the regenerated ledger to F

The static census (``tests/system/test_no_test_only_code.py``) counts a name
as used when any code outside ``tests/`` names it.  This tool asks the
dynamic question instead: it drives :data:`ENTRY_POINTS` -- the CLI, every
``simulate`` scenario, the examples, the bench workloads hosted in this
process, ``benchmarks/``, ``repro serve`` over a real socket and a PFNM task
past its width cap -- under ``sys.setprofile`` and ``threading.setprofile``,
and records which ``src/`` function code objects run (lambdas and
comprehensions aside).  For every defaulted parameter of a public function,
method or class, it also records whether any entry point passed a value other
than the default.

``reach_ledger.txt`` beside this file lists every function left unentered,
each with exactly one reason:

- ``error-path <test id>``: it runs only when something fails, and the named
  test drives that failure;
- ``protocol``: a method Python calls implicitly (a dunder), an interface
  stub (a ``typing.Protocol`` method, or a body that only documents, passes
  or raises ``NotImplementedError``) that concrete classes replace, or an
  implementation of a method a ``typing.Protocol`` of its module declares;
- ``api <doc>``: the named hand-written document (``README.md`` or a page
  under ``docs/``) names it as public API;
- ``pending #N``: open ROADMAP item N drives it or deletes it.

The check fails on an unentered function the ledger does not list, on a
listed function that an entry point now enters or that no longer exists, and
on a reason that does not hold.  The ledger's second section lists the
defaulted parameters no entry point set off their default; the check fails
when it differs from what the drive saw, either way.  Standard library only (``benchmarks/``
is driven through the repository's own pytest); not collected by pytest.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import io
import json
import os
import pkgutil
import re
import runpy
import shutil
import sys
import tempfile
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
LEDGER = Path(__file__).with_name("reach_ledger.txt")
REASON = re.compile(r"^(error-path (tests/\S+\.py)::(\S+)|protocol|api (\S+\.md)|pending #(\d+))$")
UNENTERED = "## unentered functions"
DEFAULTS = "## defaulted parameters no entry point set off their default"


# -- what src/ defines -----------------------------------------------------------


@dataclass(frozen=True)
class Definition:
    """One function of ``src/``: where its code object starts, and whether it
    is an interface stub (a method of a ``typing.Protocol`` class, or one whose
    body only documents, passes or raises ``NotImplementedError``)."""

    path: Path
    line: int
    stub: bool


def is_stub(node: ast.AST) -> bool:
    body = [statement for statement in node.body
            if not (isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant))]
    return all(isinstance(statement, ast.Pass) or (
        isinstance(statement, ast.Raise) and "NotImplementedError" in ast.unparse(statement))
        for statement in body)


def definitions(src: Path) -> Dict[str, Definition]:
    """``{key: definition}`` for every ``def`` under ``src``, at any depth.

    A key is ``<path under src>::<qualified name>`` with the enclosing classes
    and functions joined by dots (``repro/net/http.py::HttpRequest.path``); a
    second definition of the same name (a property's setter) gets ``#2``.
    ``line`` is the first decorator's line, which is a code object's
    ``co_firstlineno``.  A method counts as an interface stub when its body
    is one, when its class is a ``typing.Protocol``, or when a Protocol of
    the same module declares its name (an implementation that callers reach
    through the interface)."""
    found: Dict[str, Definition] = {}

    def visit(node: ast.AST, path: Path, prefix: str, protocol: bool,
              declared: Set[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.", is_protocol(child), declared)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{path.relative_to(src).as_posix()}::{prefix}{child.name}"
                suffix = 2
                while key + ("" if suffix == 2 else f"#{suffix - 1}") in found:
                    suffix += 1
                key += "" if suffix == 2 else f"#{suffix - 1}"
                line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                stub = protocol or is_stub(child) or (
                    bool(prefix) and child.name in declared and isinstance(node, ast.ClassDef))
                found[key] = Definition(path.resolve(), line, stub)
                visit(child, path, f"{prefix}{child.name}.", False, set())
            else:
                visit(child, path, prefix, protocol, declared)

    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        declared = {member.name for node in tree.body
                    if isinstance(node, ast.ClassDef) and is_protocol(node)
                    for member in node.body if isinstance(member, ast.FunctionDef)}
        visit(tree, path, "", False, declared)
    return found


def is_protocol(node: ast.ClassDef) -> bool:
    return "Protocol" in {getattr(base, "id", getattr(base, "attr", None))
                          for base in node.bases}


def public_options(src: Path, package: str) -> Dict[Any, List[Tuple[str, str, Any]]]:
    """``{code: [(option key, parameter, default)]}`` for every defaulted
    parameter of a public function, a public method of a public class, or a
    public class's ``__init__`` (a dataclass's fields included), found by
    importing every module of ``package`` from ``src``.  Keys read as the
    census's: ``repro/net/server.py::NetConfig(port)``."""
    options: Dict[Any, List[Tuple[str, str, Any]]] = {}
    root = src / package

    def add(function: Any, owner: str, path: str) -> None:
        function = getattr(function, "__func__", function)
        code = getattr(function, "__code__", None)
        if code is None or code in options:
            return
        names = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
        positional = code.co_varnames[:code.co_argcount]
        rows = []
        for name, default in zip(positional[len(positional) - len(function.__defaults__ or ()):],
                                 function.__defaults__ or ()):
            rows.append((name, default))
        rows.extend((function.__kwdefaults__ or {}).items())
        rows = [(f"{path}::{owner}({name})", name, default) for name, default in rows
                if not name.startswith("_") and name in names]
        if rows:
            options[code] = rows

    for info in pkgutil.walk_packages([str(root)], prefix=f"{package}."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        path = Path(module.__file__).resolve().relative_to(src.resolve()).as_posix()
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != info.name:
                continue
            if isinstance(value, type):
                init = vars(value).get("__init__")
                if init is not None:
                    add(init, name, path)
                for member, attribute in vars(value).items():
                    if not member.startswith("_") and callable(getattr(attribute, "__func__",
                                                                       attribute)):
                        add(attribute, f"{name}.{member}", path)
            elif callable(value):
                add(value, name, path)
    return options


# -- the recorder ----------------------------------------------------------------


class Recorder:
    """Records every code object entered while installed, and which watched
    defaulted parameters were passed a value other than their default."""

    def __init__(self) -> None:
        self.entered: Set[Any] = set()
        self.watched: Dict[Any, List[Tuple[str, str, Any]]] = {}
        self.set_off: Set[str] = set()

    def watch(self, options: Dict[Any, List[Tuple[str, str, Any]]]) -> None:
        """Watch these defaulted parameters from now on."""
        self.watched.update((code, list(rows)) for code, rows in options.items())

    def _profile(self, frame: Any, event: str, _arg: Any) -> None:
        if event != "call":
            return
        code = frame.f_code
        self.entered.add(code)
        rows = self.watched.get(code)
        if rows is None:
            return
        values = frame.f_locals
        for row in list(rows):
            key, name, default = row
            value = values.get(name, default)
            if value is not default and not _equal(value, default):
                self.set_off.add(key)
                rows.remove(row)
        if not rows:
            del self.watched[code]

    @contextlib.contextmanager
    def installed(self):
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)
        try:
            yield self
        finally:
            sys.setprofile(None)
            threading.setprofile(None)


def _equal(value: Any, default: Any) -> bool:
    try:
        return bool(value == default) and type(value) is type(default)
    except Exception:  # an array compares elementwise; it is not the default
        return False


def entered_keys(found: Dict[str, Definition], codes: Iterable[Any]) -> Set[str]:
    """The keys of ``found`` whose code objects are among ``codes``."""
    by_start = {(definition.path, definition.line): key for key, definition in found.items()}
    starts = {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in codes}
    return {by_start[start] for start in starts if start in by_start}


# -- the ledger ------------------------------------------------------------------


def read_sections(path: Path) -> Dict[str, List[str]]:
    """``{section header: its lines}`` of a ledger file, blank and comment
    lines left out (empty when there is no file yet)."""
    sections: Dict[str, List[str]] = {}
    section = None
    lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    for line in lines:
        if line.startswith("## "):
            section = line
            sections[section] = []
        elif section is not None and line.strip() and not line.startswith("#"):
            sections[section].append(line)
    return sections


def read_ledger(path: Path) -> Dict[str, str]:
    """``{key: reason}`` of a ledger file's first section."""
    reasons: Dict[str, str] = {}
    for line in read_sections(path).get(UNENTERED, []):
        key, _, reason = line.partition(" ")
        reasons[key] = reason.strip()
    return reasons


def read_defaults(path: Path) -> Set[str]:
    """The option keys of a ledger file's second section."""
    return {line.strip() for line in read_sections(path).get(DEFAULTS, [])}


def render_ledger(reasons: Dict[str, str], options: Iterable[str]) -> str:
    width = max((len(key) for key in reasons), default=0)
    lines = [
        "# The entry-point reach ledger (tests/tools/reach.py).",
        "# Every src/ function that no entry point enters, with exactly one reason:",
        "# error-path <test id>, protocol, api <doc> or pending #N.",
        "# Regenerate: PYTHONPATH=src python tests/tools/reach.py --write",
        "",
        UNENTERED,
        *(f"{key.ljust(width)}  {reason}" for key, reason in sorted(reasons.items())),
        "",
        DEFAULTS,
        *sorted(options),
        "",
    ]
    return "\n".join(lines)


def open_roadmap_items(root: Path) -> Set[int]:
    text = (root / "ROADMAP.md").read_text(encoding="utf-8")
    open_items = text.split("## Open items", 1)[1].split("\n## ", 1)[0]
    return {int(number) for number in re.findall(r"^(\d+)\. ", open_items, re.M)}


def reason_problem(key: str, reason: str, found: Dict[str, Definition], root: Path,
                   items: Set[int]) -> Optional[str]:
    """Why ``reason`` does not hold for ``key``, or ``None`` when it does."""
    match = REASON.match(reason)
    if not match:
        return f"{reason!r} is not error-path <test id>, protocol, api <doc> or pending #N"
    name = key.split("::")[1].split("#")[0].rsplit(".", 1)[-1]
    if match.group(2):
        test_file = root / match.group(2)
        test_name = match.group(3).rsplit("::", 1)[-1].split("[")[0]
        if not test_file.is_file():
            return f"{match.group(2)} does not exist"
        if not re.search(rf"def {re.escape(test_name)}\b", test_file.read_text(encoding="utf-8")):
            return f"{match.group(2)} defines no {test_name}"
    elif reason == "protocol":
        dunder = name.startswith("__") and name.endswith("__")
        if not (dunder or found[key].stub):
            return "protocol is for a dunder or an interface stub"
    elif match.group(4):
        document = root / match.group(4)
        if not document.is_file() or not (document.name == "README.md"
                                          or document.parent.name == "docs"):
            return f"{match.group(4)} is not README.md or a page under docs/"
        text = document.read_text(encoding="utf-8")
        if "**Auto-generated**" in text and document.name not in ("cli.md", "rpc.md"):
            return f"{match.group(4)} is generated"
        if not re.search(rf"\b{re.escape(name.strip('_'))}\b", text):
            return f"{match.group(4)} never names {name}"
    elif int(match.group(5)) not in items:
        return f"ROADMAP item {match.group(5)} is not open"
    return None


def check(found: Dict[str, Definition], entered: Set[str], reasons: Dict[str, str],
          root: Path, items: Set[int]) -> List[str]:
    """Every way the ledger disagrees with what ran; empty when it agrees."""
    problems = []
    for key in sorted(set(found) - entered - set(reasons)):
        problems.append(f"unentered and unlisted: {key} (drive it, delete it, or list it "
                        "with a reason)")
    for key in sorted(set(reasons) & entered):
        problems.append(f"listed but entered: {key} (drop its line)")
    for key in sorted(set(reasons) - set(found)):
        problems.append(f"listed but not defined: {key} (drop its line)")
    for key in sorted(set(reasons) & set(found)):
        problem = reason_problem(key, reasons[key], found, root, items)
        if problem:
            problems.append(f"{key}: {problem}")
    return problems


def check_defaults(listed: Set[str], unset: Set[str], defined: Set[str]) -> List[str]:
    """Every way the ledger's second section disagrees with the drive:
    ``listed`` against the ``unset`` of the ``defined`` option keys."""
    return ([f"never set off its default and unlisted: {key} (list it)"
             for key in sorted(unset - listed)]
            + [f"listed but not defined: {key} (drop its line)"
               for key in sorted(listed - defined)]
            + [f"listed but an entry point set it off its default: {key} (drop its line)"
               for key in sorted(listed & defined - unset)])


# -- the entry-point table -------------------------------------------------------


#: An entry point: a callable given the drive's scratch directory.
Entry = Callable[[Path], None]


def cli(*argv: str, expect: int = 0) -> Entry:
    """One ``repro`` invocation through ``repro.cli.main``; ``{work}`` in an
    argument is the drive's scratch directory."""
    def run(work: Path) -> None:
        from repro.cli import main

        try:
            code = main([argument.format(work=work) for argument in argv])
        except SystemExit as exit:  # argparse refuses a flag by exiting
            code = exit.code
        assert code == expect, f"repro {' '.join(argv)} exited {code}"
    run.__name__ = "repro " + " ".join(argv)
    return run


#: Each example and the arguments that keep it at test scale.
EXAMPLES = {
    "background_load.py": [], "cluster_replication.py": [],
    "gas_cost_report.py": ["--owners", "3"], "marketplace_simulation.py": [],
    "model_quality_experiment.py": ["--owners", "3", "--epochs", "1", "--samples", "600"],
    "quickstart.py": [], "rpc_gateway.py": [], "simnet_scenarios.py": [],
    "storage_recovery.py": [],
}

BENCH_WORKLOADS = ("ingest", "wire_mixed", "wire_read", "wire_ipfs", "marketplace")


def example(name: str) -> Entry:
    def run(work: Path) -> None:
        argv = sys.argv
        sys.argv = [name, *EXAMPLES[name]]
        try:
            runpy.run_path(str(ROOT / "examples" / name), run_name="__main__")
        finally:
            sys.argv = argv
    run.__name__ = f"examples/{name}"
    return run


def bench_workload(name: str) -> Entry:
    """One repetition of a bench workload at smoke size, its server hosted on
    a thread of this process."""
    def run(work: Path) -> None:
        bench = str(ROOT / "bench")
        if bench not in sys.path:
            sys.path.insert(0, bench)
        import spec
        import workloads

        (work / f"bench-{name}").mkdir()
        rep = workloads.RUNNERS[name](workloads.Context(
            seed=7, rep=0, size=spec.SIZES[name]["smoke"], src_dir=str(ROOT / "src"),
            work_dir=str(work / f"bench-{name}"), in_process=True))
        assert not rep.failed, f"bench workload {name}: {rep.problems}"
    run.__name__ = f"bench {name}"
    return run


def benchmarks(work: Path) -> None:
    """``benchmarks/``: every paper-claim test, on the paper preset's run."""
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "benchmarks")])
    assert code == 0, f"benchmarks/ exited {code}"


def serve_until_sigterm(work: Path) -> None:
    """``repro serve`` itself, in this process's main thread: one request once
    it listens, then SIGTERM and its graceful shutdown; then again on the same
    ``--store``, whose shutdown snapshot the second boot recovers."""
    import signal

    from repro.cli import main

    for boot in range(2):
        log = io.StringIO()

        def client() -> None:
            deadline = time.monotonic() + 30
            while "listening on " not in log.getvalue() and time.monotonic() < deadline:
                time.sleep(0.01)
            url = log.getvalue().split("listening on ", 1)[1].split()[0]
            try:
                with urllib.request.urlopen(url.rstrip("/") + "/healthz",
                                            timeout=30) as response:
                    assert response.status == 200
            finally:
                os.kill(os.getpid(), signal.SIGTERM)

        helper = threading.Thread(target=client)
        with contextlib.redirect_stdout(log):
            helper.start()
            code = main(["serve", "--port", "0", "--block-interval", "0.05", "--obs",
                         "--store", str(work / "served")])
        helper.join()
        assert code == 0 and "graceful shutdown complete" in log.getvalue(), log.getvalue()


def cli_reference(work: Path) -> None:
    """``python -m repro.cli_docs``, which writes docs/cli.md."""
    try:
        runpy.run_module("repro.cli_docs", run_name="__main__")
    except SystemExit as exit:
        assert not exit.code, f"repro.cli_docs exited {exit.code}"


def pfnm_past_the_width_cap(work: Path) -> None:
    """A PFNM task with more owners than the width cap admits, on tiny data:
    its assignment solve runs."""
    from repro.system import quick_config, run_marketplace

    report = run_marketplace(quick_config(num_owners=9, num_samples=900, local_epochs=1,
                                          aggregator="pfnm"))
    assert len(report.local_accuracies) == 9


def serve_over_a_socket(work: Path) -> None:
    """``repro serve``'s stack hosted on a ``ServerThread``: one valid call of
    every method its gateway serves over HTTP (the transfers and contract
    calls of Fig. 2's ``CidStorage``), and one ``/ws`` subscription."""
    from repro.chain.account import Address
    from repro.chain.keys import KeyPair
    from repro.chain.transaction import Transaction, encode_call, encode_create
    from repro.net import NetConfig, ServerThread, WebSocketClient, build_serve_stack

    sender = KeyPair.from_label("reach-sender")
    address = Address(sender.address)
    server = build_serve_stack(NetConfig(port=0, block_interval_seconds=0),
                               store=str(work / "serve-store"), obs=True)
    thread = ServerThread(server)
    port = thread.start()
    url = f"http://127.0.0.1:{port}/"
    called: Set[str] = set()

    def call(method: str, *params: Any) -> Any:
        called.add(method)
        body = json.dumps({"jsonrpc": "2.0", "id": 1, "method": method,
                           "params": list(params)}).encode()
        request = urllib.request.Request(url, body, {"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as response:
            reply = json.loads(response.read())
        assert "error" not in reply, f"{method}: {reply['error']}"
        return reply["result"]

    def transact(to: Optional[str], data: bytes, value: int = 0) -> Dict[str, Any]:
        nonce = int(call("eth_getTransactionCount", str(address), "latest"), 16)
        tx = Transaction(sender=address, to=to, value=value, nonce=nonce, data=data,
                         gas_limit=2_000_000, gas_price=10**9)
        tx.sign(sender)
        call("eth_estimateGas", {"from": str(address), "to": to, "value": hex(value),
                                 "data": "0x" + data.hex()})
        tx_hash = call("eth_sendRawTransaction", tx.serialize_raw())
        call("eth_getTransactionByHash", tx_hash)  # pending, then mined
        call("evm_mine", 1)
        call("eth_getTransactionByHash", tx_hash)
        receipt = call("eth_getTransactionReceipt", tx_hash)
        assert receipt["status"] == 1, receipt
        return receipt

    try:
        with WebSocketClient("127.0.0.1", port) as ws:
            subscription = ws.request("eth_subscribe", ["newHeads"])
            logs = ws.request("eth_subscribe", ["logs", {}])
            called.add("eth_subscribe")
            call("dev_fundAccount", str(address))
            assert call("eth_chainId") and call("net_serverStatus")
            log_filter = call("eth_newFilter", {})
            block_filter = call("eth_newBlockFilter")
            pending_filter = call("eth_newPendingTransactionFilter")
            transact("0x" + "11" * 20, b"", value=1)
            assert ws.next_notification()["subscription"] == subscription
            assert ws.request("eth_unsubscribe", [subscription]) is True
            called.add("eth_unsubscribe")
            ws.drain_notifications()
            contract = transact(None, encode_create("CidStorage", []))["contract_address"]
            added = call("ipfs_add", (b"reach" * 100).hex())
            transact(contract, encode_call("uploadCid", [added["cid"]]))
            while ws.next_notification()["subscription"] != logs:
                pass  # the heads of the blocks mined since the upload's
            assert ws.request("eth_unsubscribe", [logs]) is True
            for method, args in (("cidCount", []), ("getCid", [0]), ("getUploader", [0]),
                                 ("getAllCids", []), ("owner", [])):
                call("eth_call", {"to": contract, "data": "0x" + encode_call(method, args).hex()},
                     "latest")
            call("eth_getCode", contract)
            call("eth_blockNumber")
            call("eth_getBlockByNumber", "latest", True)
            call("eth_getBalance", str(address), "latest")
            call("eth_getLogs", {"fromBlock": "0x0", "toBlock": "latest"})
            call("eth_getFilterChanges", block_filter)
            call("eth_getFilterChanges", pending_filter)
            call("eth_getFilterLogs", log_filter)
            call("eth_uninstallFilter", log_filter)
            call("ipfs_pin", added["cid"])
            call("ipfs_stat", added["cid"])
            assert call("ipfs_cat", added["cid"]) == "0x" + (b"reach" * 100).hex()
            for method, params in (("parallel_status", []), ("storage_stats", []),
                                   ("obs_cacheStats", []), ("obs_metrics", []),
                                   ("obs_metricsJson", []), ("obs_top", [5]),
                                   ("obs_traces", [5]), ("obs_trace", []),
                                   ("obs_events", [None, 10])):
                call(method, *params)
        for path in ("healthz", "metrics"):
            with urllib.request.urlopen(url + path, timeout=30) as response:
                assert response.status == 200
        missing = set(server.gateway._arities) - called
        assert not missing, f"served methods the drive never called: {sorted(missing)}"
    finally:
        thread.stop()


def entry_points() -> List[Entry]:
    """The committed table, in the order it runs."""
    from repro.simnet.scenario import SCENARIOS

    table: List[Entry] = [
        cli("run", "--owners", "2", "--epochs", "1", "--store", "{work}/store",
            "--save", "{work}/report.json"),
        cli("show", "{work}/report.json"),
        cli("storage", "inspect", "{work}/store"),
        cli("storage", "verify", "{work}/store"),
        cli("analytics", "status", "{work}/store"),
        cli("analytics", "query", "{work}/store"),
        cli("analytics", "backfill", "{work}/store"),
        cli("storage", "compact", "{work}/store"),
        cli("gas-report", "--owners", "3"),
        cli("model-quality", "--owners", "2", "--epochs", "1", "--samples", "400"),
        cli("cluster", "status", "--replicas", "3", "--blocks", "4"),
        cli("cluster", "status", "--replicas", "3", "--blocks", "4", "--geo", "--json"),
        cli("obs", "metrics", "--save-events", "{work}/events.jsonl"),
        cli("obs", "trace", "--scenario", "partition_heal"),
        cli("obs", "top", "--scenario", "leader_crash"),
        cli("obs", "events", "--scenario", "geo"),
        cli("info"),
        cli("rpc", "eth_chainId"),
        cli("rpc", "--demo", "oflw3_health"),
        cli("rpc", "--list", "--markdown"),
        cli_reference,
    ]
    #: Each scenario at 2 owners and 1 epoch; one observed and saved, one with
    #: every owner behaviour and a flaky network.
    extra = {"analytics_storm": ("--obs", "--save", "{work}/observed.json")}
    table += [cli("simulate", "--scenario", name, "--owners", "2", "--epochs", "1",
                  *extra.get(name, ())) for name in sorted(SCENARIOS)]
    table.append(cli("simulate", "--scenario", "adversarial", "--owners", "4", "--epochs", "1",
                     "--poison-fraction", "0.25", "--dropout-fraction", "0.25",
                     "--straggler-fraction", "0.25", "--freerider-fraction", "0.25",
                     "--network", "flaky", "--save", "{work}/scenario.json"))
    # Every owner churns out: the task fails, and the command exits 3.
    table.append(cli("simulate", "--scenario", "churn", "--owners", "2", "--epochs", "1",
                     "--dropout-fraction", "1.0", "--straggler-fraction", "0", expect=3))
    table += [example(name) for name in sorted(EXAMPLES)]
    table += [bench_workload(name) for name in BENCH_WORKLOADS]
    table += [benchmarks, serve_over_a_socket, serve_until_sigterm, pfnm_past_the_width_cap]
    return table


def drive(table: Sequence[Entry], recorder: Recorder) -> Dict[str, float]:
    """Run every entry point of ``table`` under ``recorder``, its output
    captured (and shown if it fails); each one's wall time."""
    work = Path(tempfile.mkdtemp(prefix="reach-"))
    timings: Dict[str, float] = {}
    try:
        for entry in table:
            sink = io.StringIO()
            began = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                        recorder.installed():
                    entry(work)
            except BaseException:
                sys.stderr.write(f"{entry.__name__} failed; its output:\n{sink.getvalue()}")
                raise
            timings[entry.__name__] = time.perf_counter() - began
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return timings


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the ledger: keep each listed reason, drop "
                             "entered lines, add unlisted ones as 'pending #?'")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the regenerated ledger here (the committed one "
                             "is left as it is)")
    parser.add_argument("--timings", action="store_true",
                        help="print each entry point's wall time")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    found = definitions(src)
    recorder = Recorder()
    with recorder.installed():  # module bodies run here, as on an entry point's imports
        options = public_options(src, "repro")
    recorder.watch(options)
    began = time.perf_counter()
    timings = drive(entry_points(), recorder)
    wall = time.perf_counter() - began
    entered = entered_keys(found, recorder.entered)
    defined = {key for rows in options.values() for key, _, _ in rows}
    unset = sorted(defined - recorder.set_off)

    reasons = read_ledger(LEDGER)
    regenerated = {key: reasons.get(key, "pending #?")
                   for key in sorted(set(found) - entered)}
    text = render_ledger(regenerated, unset)
    if args.write:
        LEDGER.write_text(text, encoding="utf-8")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    if args.timings:
        for name, seconds in sorted(timings.items(), key=lambda item: -item[1]):
            print(f"{seconds:8.2f} s  {name}")
    print(f"{len(entered)} of {len(found)} src/ functions entered, "
          f"{len(found) - len(entered)} unentered; {len(unset)} defaulted parameters "
          f"never set off their default; drive {wall:.1f} s")
    problems = check(found, entered, read_ledger(LEDGER), ROOT, open_roadmap_items(ROOT))
    problems += check_defaults(read_defaults(LEDGER), set(unset), defined)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
