"""The test-only code census: no public code in ``src/`` that only tests reach.

Every public top-level function or class in ``src/``, and every public
method of a top-level class, must be named somewhere in ``src/``, ``bench/``,
``benchmarks/`` or ``examples/`` outside its own definition.  An import
line is not a caller, nor is a name in an ``__init__.py``'s ``__all__`` or
lazy-export ``_HOME`` table; a docstring or a comment is not a caller
either.  A table entry such as ``AGGREGATORS``'s values is, and so is a name
inside any other string (contract methods travel as strings).

The census is one pass that counts identifiers: a symbol is reached if its
name occurs anywhere outside its own definition.  So it is blind to two
symbols that share a name; it errs towards keeping code, never towards
flagging it.

The symbols that are reached only from tests and stay are in
:data:`ALLOWED`, each with one of four reasons:

- ``dispatch``: called by name at run time (a contract's ABI method);
- ``oracle``: a reference a test compares the product against, or a
  side-effect-free read of state the product keeps;
- ``pending #N``: open ROADMAP item N deletes it;
- ``api``: documented as public API in README.md or ``docs/``.

An entry that gains a caller, or whose symbol is gone, fails too, so the
list cannot rot.  CI runs this file as its own step.
"""

from __future__ import annotations

import ast
import bisect
import re
from collections import Counter, defaultdict
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SCANNED = ("src", "bench", "benchmarks", "examples")

ALLOWED = {
    # dispatch: contract ABI methods that no workflow step calls yet.
    "repro/contracts/cid_storage.py::CidStorage.getCid": "dispatch",
    "repro/contracts/fl_task.py::FLTask.getCid": "dispatch",
    "repro/contracts/fl_task.py::FLTask.getSubmissions": "dispatch",
    "repro/contracts/fl_task.py::FLTask.paidTotal": "dispatch",
    # oracle: references the tests compare the product against.
    "repro/incentives/contribution.py::shapley_exact": "oracle",
    "repro/ipfs/cid.py::CID.to_v1": "oracle",
    "repro/ml/serialization.py::deserialize_model": "oracle",
    "repro/utils/serialization.py::rlp_decode": "oracle",
    # oracle: side-effect-free reads of state the product keeps.
    "repro/chain/account.py::Address.checksummed": "oracle",
    "repro/chain/chain.py::Blockchain.iter_logs": "oracle",
    "repro/chain/executor.py::CallContext.self_balance": "oracle",
    "repro/chain/faucet.py::Faucet.total_dripped": "oracle",
    "repro/chain/gas.py::GasMeter.gas_remaining": "oracle",
    "repro/chain/gas.py::GasMeter.refund_counter": "oracle",
    "repro/chain/receipts.py::TransactionReceipt.succeeded": "oracle",
    "repro/chain/state.py::WorldState.total_supply": "oracle",
    "repro/chain/transaction.py::Transaction.size_bytes": "oracle",
    "repro/ipfs/multihash.py::Multihash.function_name": "oracle",
    "repro/ipfs/node.py::IpfsNode.has_local": "oracle",
    "repro/ipfs/pinning.py::PinSet.pin_type": "oracle",
    "repro/ipfs/pinning.py::PinSet.recursive_pins": "oracle",
    "repro/ml/trainer.py::TrainingHistory.losses": "oracle",
    "repro/obs/tracing.py::Span.sim_seconds": "oracle",
    "repro/obs/tracing.py::Tracer.replicas_for": "oracle",
    "repro/simnet/netmodel.py::LinkProfile.is_ideal": "oracle",
    "repro/simnet/runner.py::ScenarioRunner.marketplace_reports": "oracle",
    "repro/simnet/scenario.py::ScenarioSpec.is_seed_exact": "oracle",
    "repro/storage/wal.py::WriteAheadLog.last_block_entry": "oracle",
    "repro/web/wallet.py::MetaMaskWallet.activity_summary": "oracle",
    # pending: an open ROADMAP item deletes it.
    "repro/chain/chain.py::Blockchain.batchverify_stats": "pending #2",
    "repro/analytics/feeder.py::detach_analytics": "pending #8",
    "repro/web/client.py::RestClient.get_json": "pending #17",
    "repro/web/client.py::RestClient.post_json": "pending #17",
    "repro/web/dapp.py::BuyerDApp.task_status": "pending #17",
    # api: documented in docs/ (analytics.md, networking.md).
    "repro/chain/explorer.py::Explorer.account_activity": "api",
    "repro/net/websocket.py::WebSocketClient": "api",
    "repro/net/websocket.py::WebSocketClient.drain_notifications": "api",
    "repro/net/websocket.py::WebSocketClient.next_notification": "api",
}

REASON = re.compile(r"^(dispatch|oracle|api|pending #(\d+))$")
WORD = re.compile(r"[A-Za-z_]\w*")
NOT_CALLERS = {"__all__", "_HOME"}


def names_in(tree: ast.Module, init: bool):
    """Yield ``(line, identifier)`` for each name the module's code uses."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                for word in WORD.findall(node.value):
                    yield node.lineno, word
            continue
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring
        elif init and isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id in NOT_CALLERS
                for target in node.targets):
            continue
        stack.extend(ast.iter_child_nodes(node))


def public_definitions(tree: ast.Module):
    """Yield ``(qualname, node)`` for public top-level defs and their methods."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds[:2]) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


@lru_cache(maxsize=None)
def census():
    """``(defined, caller_less)``: every public symbol, and those nothing names."""
    uses = Counter()
    lines_of = defaultdict(lambda: defaultdict(list))
    trees = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if top == "src":
                trees[path] = tree
            for line, word in names_in(tree, path.name == "__init__.py"):
                uses[word] += 1
                lines_of[path][word].append(line)
    defined, caller_less = set(), set()
    for path, tree in trees.items():
        for qualname, node in public_definitions(tree):
            key = f"{path.relative_to(SRC).as_posix()}::{qualname}"
            defined.add(key)
            own = sorted(lines_of[path][node.name])
            inside = (bisect.bisect_right(own, node.end_lineno)
                      - bisect.bisect_left(own, node.lineno))
            if uses[node.name] == inside:
                caller_less.add(key)
    return frozenset(defined), frozenset(caller_less)


def test_every_public_symbol_has_a_caller_or_a_reason():
    _, caller_less = census()
    unexplained = sorted(caller_less - set(ALLOWED))
    assert not unexplained, (
        "only tests reach these; delete them, or give each an ALLOWED entry "
        f"with a reason: {unexplained}")


def test_every_allowlisted_symbol_exists_and_is_still_caller_less():
    defined, caller_less = census()
    gone = sorted(set(ALLOWED) - defined)
    reached = sorted(set(ALLOWED) & (defined - caller_less))
    assert not gone, f"these ALLOWED entries name no symbol: {gone}"
    assert not reached, f"these now have a caller; drop their ALLOWED entries: {reached}"


def open_roadmap_items():
    text = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    open_items = text.split("## Open items", 1)[1].split("\n## ", 1)[0]
    return {int(number) for number in re.findall(r"^(\d+)\. ", open_items, re.M)}


def test_every_reason_is_one_of_four_and_holds():
    documents = "\n".join(path.read_text(encoding="utf-8") for path in
                          [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))])
    items = open_roadmap_items()
    for key, reason in ALLOWED.items():
        match = REASON.match(reason)
        assert match, f"{key}: {reason!r} is not dispatch, oracle, api or pending #N"
        name = key.rsplit("::", 1)[1].rsplit(".", 1)[-1]
        if match.group(2):
            assert int(match.group(2)) in items, f"{key}: ROADMAP item {match.group(2)} is not open"
        if reason == "api":
            assert re.search(rf"\b{name}\b", documents), f"{key}: README.md and docs/ never name it"
