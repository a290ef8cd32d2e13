"""A finished task frees itself.

Buyers post one-shot tasks one after another, so what one task built -- its
stack, chain, gateway, IPFS nodes, SDK clients and buyer backend -- must
leave memory when the last reference to it goes, by reference counting
alone.  An object graph with a reference cycle waits for Python's cyclic
collector instead, and a task's datasets and models wait with it.  With the
cyclic collector off, these tests drop a task and require (1) every object
watched to be dead already and (2) a full collection to find no ``repro``
object left over.  A failure prints each cycle's member types, which names
the edge to cut (see ``docs/architecture.md``, "Who owns whom").

A third test pins the other half of a task's memory: the quick preset never
solves an assignment below PFNM's width cap, so it never imports scipy.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import subprocess
import sys
import weakref
from typing import Any, Dict, List

import pytest

from repro.storage import StorageEngine
from repro.system.config import quick_config
from repro.system.orchestrator import build_environment, run_marketplace
from repro.system.stack import build_stack
from tests.system.test_stack import REPRO_ENV, imported_from

SMOKE = dict(num_samples=400, local_epochs=1, num_owners=2)


@contextlib.contextmanager
def cyclic_collection_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def cycles_among(garbage: List[Any]) -> List[List[Any]]:
    """The strongly connected components (two or more members, or one that
    refers to itself) of the reference graph among ``garbage``."""
    members = {id(obj): obj for obj in garbage}
    edges = {key: [id(ref) for ref in gc.get_referents(obj) if id(ref) in members]
             for key, obj in members.items()}
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    stack: List[int] = []
    on_stack = set()
    components = []
    for root in members:
        if root in index:
            continue
        work = [(root, iter(edges[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            child = next(children, None)
            if child is None:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(members[member])
                        if member == node:
                            break
                    if len(component) > 1 or node in edges[node]:
                        components.append(component)
            elif child not in index:
                index[child] = low[child] = len(index)
                stack.append(child)
                on_stack.add(child)
                work.append((child, iter(edges[child])))
            elif child in on_stack:
                low[node] = min(low[node], index[child])
    return components


def type_name(obj: Any) -> str:
    return f"{type(obj).__module__}.{type(obj).__qualname__}"


def describe(components: List[List[Any]]) -> str:
    lines = []
    for component in components:
        counts = collections.Counter(type_name(obj) for obj in component)
        lines.append(f"cycle of {len(component)}: " + ", ".join(
            f"{name} x{count}" for name, count in sorted(counts.items())))
    return "\n".join(lines)


def assert_freed_by(drop, watched: Dict[str, weakref.ref]) -> None:
    """Call ``drop`` (which lets go of the last references): every watched
    object must be dead at once, and a full collection must find no
    ``repro`` object that only it could free."""
    drop()
    alive = sorted(name for name, ref in watched.items() if ref() is not None)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    ours = sum(type(obj).__module__.startswith("repro.") for obj in garbage)
    if alive or ours:
        pytest.fail(f"still alive after the last reference went: {alive}; "
                    f"{ours} repro objects needed the cyclic collector:\n"
                    f"{describe(cycles_among(garbage))}", pytrace=False)


def test_a_finished_task_is_freed_by_reference_counting():
    with cyclic_collection_off():
        env = build_environment(quick_config(**SMOKE))
        report = run_marketplace(environment=env)
        buyer = env.buyer
        watched = {
            "stack": weakref.ref(env.stack),
            "chain": weakref.ref(env.node.chain),
            "gateway": weakref.ref(env.gateway),
            "ipfs node": weakref.ref(env.owners[0].ipfs),
            "marketplace client": weakref.ref(buyer.wallet.rpc),
            "buyer backend": weakref.ref(buyer.backend),
        }
        del buyer

        def drop():
            nonlocal env, report
            del env, report

        assert_freed_by(drop, watched)


def test_a_closed_stack_with_an_engine_is_freed_by_reference_counting():
    with cyclic_collection_off():
        stack = build_stack(storage=StorageEngine())
        stack.rpc.eth.block_number  # builds the in-process SDK client too
        stack.close()
        watched = {
            "stack": weakref.ref(stack),
            "chain": weakref.ref(stack.node.chain),
            "gateway": weakref.ref(stack.gateway),
            "registry": weakref.ref(stack.registry),
            "marketplace client": weakref.ref(stack.rpc),
        }

        def drop():
            nonlocal stack
            del stack

        assert_freed_by(drop, watched)


def test_a_stack_whose_gateway_kept_replies_is_freed_by_reference_counting():
    """The reply cache and the pipeline stage that reads it hold no path
    back to the gateway."""
    with cyclic_collection_off():
        stack = build_stack()
        for _ in range(2):
            stack.gateway.handle_raw(
                '{"jsonrpc": "2.0", "id": 1, "method": "eth_getBlockByNumber", '
                '"params": ["latest", true]}')
        assert stack.gateway.replies.hits == 1
        watched = {
            "stack": weakref.ref(stack),
            "chain": weakref.ref(stack.node.chain),
            "gateway": weakref.ref(stack.gateway),
            "reply cache": weakref.ref(stack.gateway.replies),
        }

        def drop():
            nonlocal stack
            del stack

        assert_freed_by(drop, watched)


def test_a_task_below_the_width_cap_never_imports_scipy():
    """The quick preset's fold-ins never reach PFNM's width cap, so no
    assignment is solved and ``scipy.optimize`` stays unloaded.  (A fold-in
    at the cap still solves through ``pfnm.linear_sum_assignment``:
    ``tests/property/test_property_pfnm.py`` spies on it.)"""
    code = ("from repro.system.config import quick_config\n"
            "from repro.system.orchestrator import build_environment, run_marketplace\n"
            f"run_marketplace(environment=build_environment(quick_config(**{SMOKE!r})))\n")
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          env=REPRO_ENV, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert imported_from(done.stderr, ("numpy",)), "the task never ran"
    assert imported_from(done.stderr, ("scipy",)) == []
