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

A function reached only from tests stays when the entry-point reach
ledger (``tests/tools/reach_ledger.txt``) lists it, with the reason the
ledger gives it.  What the ledger cannot hold -- a class, or a function an
entry point enters though no code outside ``tests/`` names it -- is in
:data:`ALLOWED`, each with one of three reasons:

- ``dispatch``: called by name at run time (a contract's ABI method);
- ``pending #N``: open ROADMAP item N deletes it;
- ``api``: documented as public API in README.md or ``docs/``.

A reference that only tests compare the product against is not a reason to
keep code in ``src/``: it lives in ``tests/oracles.py``.  Which functions
an entry point actually runs is the dynamic question ``tests/tools/reach.py``
answers; this census is its static first pass.

An entry that gains a caller, whose symbol is gone, or that the ledger
lists as well, fails too, so the list cannot rot.

The option pass applies the same rule to options: every defaulted
parameter (positional or keyword-only) of a public function, a public
method or a public class's ``__init__``, and every defaulted ``__init__``
field of a public ``@dataclass``.  A ``_``-prefixed name is private state,
not an option, and so is a ``field(init=False)``.  An option is set by

- a call whose callee is the function's or method's name, or the class's
  name for ``__init__`` and fields (``cls`` inside the class,
  ``__init__`` from a subclass), that passes it by keyword or by
  position;
- for a field, a ``replace`` or ``with_overrides`` call that passes it by
  keyword, or an attribute store ``obj.field = ...`` on another object
  (``self.field = ...`` sets an attribute of the storing class, which
  says nothing about a dataclass that shares the name);
- a call through a dispatch table (``AGGREGATORS[name](...)``) that passes
  it by keyword, for each callable the table's dict literal holds;
- a ``*``/``**`` splat into such a callee, which sets every option of it
  unless the splat's keys can be read: a dict the enclosing function
  builds from literal keys sets those keys, and a function's own
  ``**kwargs`` splatted on makes the function's callers the callee's
  callers (``quick_config(seed=...)`` sets ``OFLW3Config.seed``).  An
  unread splat into ``replace``, ``with_overrides`` or a dispatch table
  sets nothing: each serves many callables, so it says nothing about one;
- the wire, for a parameter of a method of a ``*Namespace`` class: those
  methods are JSON-RPC methods, whose params the client names.

A callee is resolved where the call says which one it is: ``self.x(...)``
and ``cls.x(...)`` name the enclosing class's ``x`` (or an override or a
base's, along the class hierarchy), ``module.x(...)`` the imported module's
``x`` (or a name its package re-exports), a bare ``x(...)`` the ``x`` its
module defines or imports, ``K(...).x(...)`` class ``K``'s ``x``, and
``self.a.x(...)`` the ``x`` of the one class whose instance the enclosing
class stores in ``self.a``.  So ``asyncio.run(...)`` sets nothing of a
``run`` method, and a method of another class that shares the name sets
nothing of this one.  Any other receiver (a local, a parameter, a chain of
attributes) is matched by name alone, so the pass still errs towards
keeping.  An option that ``tests/`` sets and nothing in ``src/``, ``bench/``,
``benchmarks/`` or ``examples/`` sets keeps a code path alive for tests
only.  An option that nothing sets at all, not even a test, only ever
holds its default: it is a constant, or a branch that never runs.  Each
one of either kind that stays is in :data:`ALLOWED_OPTIONS` with one of
three reasons:

- ``api``: README.md or a hand-written ``docs/`` page names the option
  (an auto-generated page such as docs/cli.md does not count);
- ``pending #N``: open ROADMAP item N deletes it;
- ``scale <tests/...py>``: a limit the named test file passes a small
  value for, so the limit's path runs in milliseconds; the file must name
  the keyword.

An entry whose option is gone, or that something outside ``tests/`` now
sets, fails as for symbols.  CI runs this file as its own step.
"""

from __future__ import annotations

import ast
import bisect
import re
from collections import Counter, defaultdict
from functools import lru_cache
from pathlib import Path

from tests.tools import reach

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "bench", "benchmarks", "examples")

ALLOWED = {
    # dispatch: a contract ABI method that a served eth_call reaches by name.
    "repro/contracts/cid_storage.py::CidStorage.getCid": "dispatch",
    # api: documented in docs/networking.md.
    "repro/net/websocket.py::WebSocketClient": "api",
    "repro/net/websocket.py::WebSocketClient.drain_notifications": "api",
    "repro/net/websocket.py::WebSocketClient.next_notification": "api",
}

ALLOWED_OPTIONS = {
    # api: named in README.md or a hand-written docs/ page.
    "repro/chain/node.py::EthereumNode(validators)": "api",
    "repro/cli.py::main(argv)": "api",
    "repro/cluster/config.py::ClusterConfig(finality_depth)": "api",
    "repro/cluster/config.py::ClusterConfig(fork_snapshot_interval)": "api",
    "repro/fl/oneshot/pfnm.py::PFNMAggregator(config)": "api",
    "repro/fl/oneshot/pfnm.py::PFNMConfig(max_global_neurons_factor)": "api",
    "repro/fl/oneshot/pfnm.py::PFNMConfig(sigma)": "api",
    "repro/net/server.py::NetConfig(drain_timeout_seconds)": "api",
    "repro/net/server.py::NetConfig(keepalive_timeout_seconds)": "api",
    "repro/net/server.py::NetConfig(max_request_bytes)": "api",
    "repro/net/websocket.py::WebSocketClient(timeout)": "api",
    "repro/net/websocket.py::WebSocketClient.request(params)": "api",
    "repro/rpc/client.py::EthClient.new_log_filter(log_filter)": "api",
    "repro/simnet/behaviors.py::FreeRiderBehavior(mode)": "api",
    "repro/simnet/behaviors.py::LabelFlipPoisonerBehavior(flip_fraction)": "api",
    "repro/simnet/behaviors.py::StragglerBehavior(mean_delay_seconds)": "api",
    # pending: an open ROADMAP item deletes it, or sets it.
    "repro/analytics/feeder.py::attach_analytics(store)": "pending #8",
    "repro/chain/chain.py::Blockchain(batch_verify)": "pending #2",
    "repro/fl/oneshot/pfnm.py::PFNMConfig(gamma)": "pending #6",
    "repro/fl/oneshot/pfnm.py::PFNMConfig(sigma0)": "pending #6",
    "repro/storage/engine.py::StorageConfig(fsync)": "pending #28",
    "repro/system/timing.py::LatencyModel(aggregation_seconds_per_update)": "pending #20",
    "repro/system/timing.py::LatencyModel(incentive_seconds_per_evaluation)": "pending #20",
    "repro/system/timing.py::LatencyModel(ipfs_overhead_seconds)": "pending #20",
    "repro/system/timing.py::LatencyModel(lan_bandwidth_bytes_per_second)": "pending #20",
    "repro/system/timing.py::LatencyModel(metamask_confirmation_seconds)": "pending #20",
    "repro/system/timing.py::LatencyModel(payment_calculation_seconds)": "pending #20",
    "repro/system/timing.py::LatencyModel(training_sample_passes_per_second)": "pending #20",
    "repro/web/client.py::RestClient.get_json(query)": "pending #17",
    "repro/web/client.py::RestClient.post_json(json_body)": "pending #17",
    "repro/web/http.py::HttpRequest.param(default)": "pending #17",
    "repro/web/http.py::HttpResponse(headers)": "pending #17",
    # scale: the named test shrinks the limit so its path runs in milliseconds.
    "repro/chain/mempool.py::Mempool(max_size)": "scale tests/chain/test_mempool.py",
    "repro/data/synthetic_mnist.py::SyntheticMnistConfig(num_features)":
        "scale tests/data/test_dataset_and_synthetic.py",
    "repro/ipfs/node.py::IpfsNode(chunk_size)": "scale tests/ipfs/test_node_swarm_gateway.py",
    "repro/simnet/runner.py::ScenarioRunner(storage)": "scale tests/simnet/test_restart.py",
    "repro/storage/engine.py::StorageConfig(cache_capacity)": "scale tests/storage/test_engine.py",
}

REASON = re.compile(r"^(dispatch|api|pending #(\d+))$")
OPTION_REASON = re.compile(r"^(api|pending #(\d+)|scale (tests/\S+\.py))$")
WORD = re.compile(r"[A-Za-z_]\w*")
NOT_CALLERS = {"__all__", "_HOME"}
FIELD_UPDATERS = ("replace", "with_overrides")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
WIRE = re.compile(r"^\w+Namespace\.\w+$")  # a JSON-RPC method: the wire sets its params


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
def parsed(root: Path, top: str):
    """``{path: module}`` for every ``.py`` file under ``root/top``."""
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((root / top).rglob("*.py"))}


@lru_cache(maxsize=None)
def census(root: Path = ROOT):
    """``(defined, caller_less)``: every public symbol, and those nothing names."""
    uses = Counter()
    lines_of = defaultdict(lambda: defaultdict(list))
    for top in SCANNED:
        for path, tree in parsed(root, top).items():
            for line, word in names_in(tree, path.name == "__init__.py"):
                uses[word] += 1
                lines_of[path][word].append(line)
    defined, caller_less = set(), set()
    for path, tree in parsed(root, "src").items():
        for qualname, node in public_definitions(tree):
            key = f"{path.relative_to(root / 'src').as_posix()}::{qualname}"
            defined.add(key)
            own = sorted(lines_of[path][node.name])
            inside = (bisect.bisect_right(own, node.end_lineno)
                      - bisect.bisect_left(own, node.lineno))
            if uses[node.name] == inside:
                caller_less.add(key)
    return frozenset(defined), frozenset(caller_less)


# -- the option pass -----------------------------------------------------------


def defaulted(args: ast.arguments, skip: int):
    """Yield ``(name, index)`` per public defaulted parameter; ``index`` is its
    place among positional arguments after ``skip`` (``self``), or None."""
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], first):
        if not arg.arg.startswith("_"):
            yield arg.arg, index - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None and not arg.arg.startswith("_"):
            yield arg.arg, None


def decorated(node, name: str) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "attr", getattr(target, "id", None)) == name:
            return True
    return False


def dataclass_fields(node: ast.ClassDef):
    """Yield ``(name, index)`` per public defaulted ``__init__`` field;
    ``index`` is its place among ``__init__``'s arguments."""
    index = 0
    for member in node.body:
        if not (isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(member.annotation):
            continue
        init = not (isinstance(member.value, ast.Call) and any(
            keyword.arg == "init" and getattr(keyword.value, "value", True) is False
            for keyword in member.value.keywords))
        if member.value is not None and init and not member.target.id.startswith("_"):
            yield member.target.id, index
        index += init


def public_options(tree: ast.Module):
    """Yield ``(qualname, option, callees, index, field)`` per public option."""
    for qualname, node in public_definitions(tree):
        if isinstance(node, FUNCTIONS):
            skip = 1 if "." in qualname and not decorated(node, "staticmethod") else 0
            for option, index in defaulted(node.args, skip):
                yield qualname, option, (node.name,), index, False
            continue
        for member in node.body:
            if isinstance(member, FUNCTIONS) and member.name == "__init__":
                for option, index in defaulted(member.args, 1):
                    yield qualname, option, (node.name, "__init__"), index, False
        if decorated(node, "dataclass"):
            for option, index in dataclass_fields(node):
                yield qualname, option, (node.name,), index, True


def splat_keys(function, name: str):
    """The keys a dict ``name`` that ``function`` builds can hold, and the
    ``**kwargs`` it forwards; ``(None, ...)`` when the keys are unknown."""
    if function is None or name in {arg.arg for arg in ast.walk(function.args)
                                    if isinstance(arg, ast.arg)}:
        return None, False
    keys, forwards, built = set(), False, False
    own = function.args.kwarg.arg if function.args.kwarg else None
    for node in ast.walk(function):
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and any(
                isinstance(target, ast.Name) and target.id == name for target in targets):
            value, built = node.value, True
            if isinstance(value, ast.Dict) and all(
                    isinstance(key, ast.Constant) for key in value.keys):
                keys.update(key.value for key in value.keys)
            elif (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict"
                  and not value.args and all(keyword.arg for keyword in value.keywords)):
                keys.update(keyword.arg for keyword in value.keywords)
            else:
                return None, False
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) and getattr(
                node.value, "id", None) == name:
            if not isinstance(node.slice, ast.Constant):
                return None, False
            keys.add(node.slice.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and getattr(node.func.value, "id", None) == name
              and node.func.attr in ("update", "setdefault")):
            if node.func.attr == "setdefault":
                keys.add(getattr(node.args[0], "value", None))
                continue
            for arg in node.args:
                if getattr(arg, "id", None) != own:
                    return None, False
                forwards = True
            keys.update(keyword.arg for keyword in node.keywords if keyword.arg)
    return (keys, forwards) if built else (None, False)


def module_name(root: Path, top: str, path: Path) -> str:
    """The dotted name ``path`` imports as (``src/repro/cli.py`` is
    ``repro.cli``; a file of another tree is named from that tree's root)."""
    parts = path.relative_to(root / top).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def bindings_in(tree: ast.Module, module: str, package: bool, modules):
    """``{name: {(kind, module, original)}}``: what each imported or top-level
    defined name of the file is.  ``kind`` is ``"module"`` for an imported
    module and ``"object"`` for anything a module defines; an import inside a
    function binds the name too (the codebase imports lazily)."""
    bound = defaultdict(set)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname].add(("module", alias.name, alias.name))
                else:
                    first = alias.name.split(".")[0]
                    bound[first].add(("module", first, first))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = module if package else module.rpartition(".")[0]
                for _ in range(node.level - 1):
                    parent = parent.rpartition(".")[0]
                base = f"{parent}.{base}".strip(".")
            for alias in node.names:
                kind = "module" if f"{base}.{alias.name}" in modules else "object"
                target = f"{base}.{alias.name}" if kind == "module" else base
                bound[alias.asname or alias.name].add((kind, target, alias.name))
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            bound[node.name].add(("object", module, node.name))
    return bound


def original(name, bound):
    """The names ``name`` is imported or defined as (``import x as y``)."""
    return {source for kind, _, source in bound.get(name, ()) if kind == "object"} or {name}


def callee_keys(func, owner, bound):
    """The keys a call through ``func`` is recorded under.

    ``("module", M, x)`` is module ``M``'s ``x``; ``("class", C, x)`` a
    ``self.x`` or ``cls.x`` inside class ``C``.  Two keys wait for every
    class to be seen (:func:`settle`): ``("new", K, x)`` for ``K(...).x``
    and ``("attr", C, a, x)`` for ``self.a.x`` inside ``C``.  Any other call
    is the bare name ``x``.
    """
    if isinstance(func, ast.Name):
        targets = [(target, source) for kind, target, source in bound.get(func.id, ())
                   if kind == "object"]
        return [("module", target, source) for target, source in targets] or [func.id]
    if not isinstance(func, ast.Attribute):
        return []
    receiver, name = func.value, func.attr
    if name in FIELD_UPDATERS:
        return [name]  # generic: matched by name for every dataclass
    if isinstance(receiver, ast.Name):
        if receiver.id in ("self", "cls") and owner:
            return [("class", owner, name)]
        targets = [target for kind, target, _ in bound.get(receiver.id, ()) if kind == "module"]
        return [("module", target, name) for target in targets] or [name]
    if isinstance(receiver, ast.Call) and isinstance(receiver.func, ast.Name):
        return [("new", cls, name) for cls in original(receiver.func.id, bound)]
    if (isinstance(receiver, ast.Attribute) and getattr(receiver.value, "id", None) == "self"
            and owner):
        return [("attr", owner, receiver.attr, name)]
    return [name]


def settle(table, bases, attributes):
    """Resolve ``table``'s waiting keys now that every class is known: a
    ``K(...).x`` is class ``K``'s ``x`` when ``K`` is a class, and a
    ``self.a.x`` is ``K``'s ``x`` when the class stores ``self.a = K(...)``
    and nothing else; otherwise each is the bare name ``x``."""
    for key in [key for key in table if isinstance(key, tuple) and key[0] in ("new", "attr")]:
        classes = {key[1]} if key[0] == "new" else attributes.get(key[1:3], ())
        cls = next(iter(classes)) if len(classes) == 1 else None
        table[("class", cls, key[-1]) if cls in bases else key[-1]] |= table.pop(key)


def setters_in(tree: ast.Module, module: str, bound, sets, forwarders, tables, bases,
               attributes):
    """Record each option setter of the module's code.

    ``sets[key]`` collects the keywords passed to the callee ``key`` names
    (see :func:`callee_keys`), each count of positional arguments (an int)
    and ``"*"`` for an unread splat; ``sets["="]`` the attributes stored.
    ``forwarders[key]`` collects ``(name, module, class)`` for each function
    that passes its own ``**kwargs`` on to that callee.  A call through a
    dispatch table (``AGGREGATORS[name](...)``) is recorded under
    ``"[AGGREGATORS]"``, and ``tables["AGGREGATORS"]`` collects the names of
    the callables a dict literal assigned to it holds.  ``bases[C]``
    collects the base-class names of each class ``C``, and
    ``attributes[(C, a)]`` the class names ``C`` stores in ``self.a``
    (``None`` for a value that is no constructor call).
    """
    def visit(node, owner, function):
        if isinstance(node, ast.ClassDef):
            owner = node.name
            bases[owner].update(getattr(base, "attr", getattr(base, "id", None))
                                for base in node.bases)
        elif isinstance(node, FUNCTIONS):
            function = node
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if owner and isinstance(target, ast.Attribute) and getattr(
                        target.value, "id", None) == "self":
                    made = isinstance(node.value, ast.Call) and isinstance(
                        node.value.func, ast.Name)
                    attributes[(owner, target.attr)].update(
                        original(node.value.func.id, bound) if made else {None})
                sets["="].update(store.attr for store in ast.walk(target)
                                 if isinstance(store, ast.Attribute)
                                 and getattr(store.value, "id", None) != "self")
                if isinstance(target, ast.Name) and isinstance(node.value, ast.Dict) and all(
                        isinstance(value, ast.Name) for value in node.value.values):
                    tables[target.id].update(value.id for value in node.value.values)
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Subscript) and isinstance(node.func.value, ast.Name):
                callees = [f"[{node.func.value.id}]"]
            elif getattr(node.func, "id", None) == "cls" and owner:
                callees = [owner]
            else:
                callees = callee_keys(node.func, owner, bound)
            for callee in callees:
                record(node, callee, function, owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner, function)

    def record(call: ast.Call, callee, function, owner):
        own = function and function.args
        positional = 0
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                if not (own and own.vararg and getattr(arg.value, "id", None) == own.vararg.arg):
                    sets[callee].add("*")
                break
            positional += 1
        sets[callee].add(positional)
        for keyword in call.keywords:
            if keyword.arg:
                sets[callee].add(keyword.arg)
                continue
            name = getattr(keyword.value, "id", None)
            if own and own.kwarg and name == own.kwarg.arg:
                forwarders[callee].add((function.name, module, owner))
                continue
            keys, forwards = splat_keys(function, name)
            sets[callee].update({"*"} if keys is None else keys)
            if forwards:
                forwarders[callee].add((function.name, module, owner))

    visit(tree, None, None)


def key_resolver(bases):
    """``keys_of(name, module, owner)``: every key a call of ``module``'s
    ``name`` (a method of class ``owner``, if given) can be recorded under."""
    children = defaultdict(set)
    for child, parents in bases.items():
        for parent in parents:
            children[parent].add(child)

    def lineage(start, links):
        seen, todo = {start}, [start]
        while todo:
            for linked in links.get(todo.pop(), ()):
                if linked not in seen:
                    seen.add(linked)
                    todo.append(linked)
        return seen

    def keys_of(name, module, owner):
        if owner:
            family = lineage(owner, bases) | lineage(owner, children)
            return {name, *(("class", cls, name) for cls in family)}
        parts = module.split(".")
        return {name, *(("module", ".".join(parts[:end]), name)
                        for end in range(1, len(parts) + 1))}

    return keys_of


def reaches(keys, forwarders, keys_of):
    """``keys`` and the keys of every function that forwards its
    ``**kwargs`` to one."""
    seen, todo = set(keys), list(keys)
    while todo:
        for caller in forwarders.get(todo.pop(), ()):
            for key in keys_of(*caller) - seen:
                seen.add(key)
                todo.append(key)
    return seen


def is_set(sets, forwarders, keys_of, option, callees, index, field, generic):
    """Whether ``sets`` holds a setter of ``option``.

    ``callees`` is one set of keys per callee that sets it (the function, or
    the class and ``__init__``); a positional count is read on the first.
    ``generic`` names the callees that serve more than this one callable
    (``replace``, a dispatch table): only their keywords are read, since an
    unread splat into one says nothing about this callable's options.
    """
    if field and option in sets.get("=", ()):
        return True
    if any(option in sets.get(callee, ()) or "*" in sets.get(callee, ())
           for callee in reaches(set().union(*callees), forwarders, keys_of)):
        return True
    if any(option in sets.get(callee, ())
           for callee in reaches(generic, forwarders, keys_of)):
        return True
    return index is not None and any(
        isinstance(count, int) and count > index
        for callee in callees[0] for count in sets.get(callee, ()))


@lru_cache(maxsize=None)
def option_census(root: Path = ROOT):
    """``(defined, test_only, unset)``: every public option, those only
    ``tests/`` sets, and those nothing sets (the wire sets every param of
    a ``*Namespace`` method)."""
    outside, inside = defaultdict(set), defaultdict(set)
    forwarders, tables, bases, attributes = (defaultdict(set) for _ in range(4))
    modules = {module_name(root, "src", path) for path in parsed(root, "src")}
    for top in (*SCANNED, "tests"):
        for path, tree in parsed(root, top).items():
            module = module_name(root, top, path)
            bound = bindings_in(tree, module, path.name == "__init__.py", modules)
            setters_in(tree, module, bound, inside if top == "tests" else outside,
                       forwarders, tables, bases, attributes)
    for table in (outside, inside, forwarders):
        settle(table, bases, attributes)
    keys_of = key_resolver(bases)
    defined, test_only, unset = set(), set(), set()
    for path, tree in parsed(root, "src").items():
        module = module_name(root, "src", path)
        for qualname, option, callees, index, field in public_options(tree):
            key = f"{path.relative_to(root / 'src').as_posix()}::{qualname}({option})"
            defined.add(key)
            if WIRE.match(qualname):
                continue
            owner = qualname.split(".")[0] if "." in qualname else None
            keys = [keys_of(callees[0], module, owner), set(callees[1:])]
            generic = {f"[{table}]" for table, entries in tables.items() if callees[0] in entries}
            generic.update(FIELD_UPDATERS if field else ())
            if is_set(outside, forwarders, keys_of, option, keys, index, field, generic):
                continue
            if is_set(inside, forwarders, keys_of, option, keys, index, field, generic):
                test_only.add(key)
            else:
                unset.add(key)
    return frozenset(defined), frozenset(test_only), frozenset(unset)


def stale_options(allowed, root: Path = ROOT):
    """``(gone, reached)``: entries naming no option, and entries whose option
    something outside ``tests/`` now sets."""
    defined, test_only, unset = option_census(root)
    return sorted(set(allowed) - defined), sorted(set(allowed) & (defined - test_only - unset))


# -- the checks ----------------------------------------------------------------


def test_every_public_symbol_has_a_caller_or_a_reason():
    _, caller_less = census()
    unexplained = sorted(caller_less - set(ALLOWED) - set(reach.read_ledger(reach.LEDGER)))
    assert not unexplained, (
        "only tests reach these; delete them, list each function in "
        "tests/tools/reach_ledger.txt with a reason, or give a class an ALLOWED "
        f"entry: {unexplained}")


def test_every_allowlisted_symbol_exists_and_is_still_caller_less():
    defined, caller_less = census()
    gone = sorted(set(ALLOWED) - defined)
    reached = sorted(set(ALLOWED) & (defined - caller_less))
    twice = sorted(set(ALLOWED) & set(reach.read_ledger(reach.LEDGER)))
    assert not gone, f"these ALLOWED entries name no symbol: {gone}"
    assert not reached, f"these now have a caller; drop their ALLOWED entries: {reached}"
    assert not twice, f"the reach ledger gives these a reason; drop their ALLOWED entries: {twice}"


def test_every_test_only_option_has_a_reason():
    _, test_only, _ = option_census()
    unexplained = sorted(test_only - set(ALLOWED_OPTIONS))
    assert not unexplained, (
        "only tests set these options; delete each with its branch, or give "
        f"it an ALLOWED_OPTIONS entry with a reason: {unexplained}")


def test_every_option_nothing_sets_has_a_reason():
    _, _, unset = option_census()
    unexplained = sorted(unset - set(ALLOWED_OPTIONS))
    assert not unexplained, (
        "nothing sets these options; make each a constant or delete it with its "
        f"branch, or give it an ALLOWED_OPTIONS entry with a reason: {unexplained}")


def test_every_allowlisted_option_exists_and_is_still_unset_outside_tests():
    gone, reached = stale_options(ALLOWED_OPTIONS)
    assert not gone, f"these ALLOWED_OPTIONS entries name no option: {gone}"
    assert not reached, f"code outside tests/ sets these; drop their entries: {reached}"


def open_roadmap_items():
    text = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    open_items = text.split("## Open items", 1)[1].split("\n## ", 1)[0]
    return {int(number) for number in re.findall(r"^(\d+)\. ", open_items, re.M)}


def hand_written_documents():
    pages = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    texts = (page.read_text(encoding="utf-8") for page in pages)
    return "\n".join(text for text in texts if "**Auto-generated**" not in text)


def test_every_reason_is_one_of_three_and_holds():
    documents = hand_written_documents()
    items = open_roadmap_items()
    for key, reason in ALLOWED.items():
        match = REASON.match(reason)
        assert match, f"{key}: {reason!r} is not dispatch, api or pending #N"
        name = key.rsplit("::", 1)[1].rsplit(".", 1)[-1]
        if match.group(2):
            assert int(match.group(2)) in items, f"{key}: ROADMAP item {match.group(2)} is not open"
        if reason == "api":
            assert re.search(rf"\b{name}\b", documents), f"{key}: README.md and docs/ never name it"


def test_every_option_reason_is_one_of_three_and_holds():
    documents = hand_written_documents()
    items = open_roadmap_items()
    for key, reason in ALLOWED_OPTIONS.items():
        match = OPTION_REASON.match(reason)
        assert match, f"{key}: {reason!r} is not api, pending #N or scale <tests/...py>"
        option = key.rsplit("(", 1)[1].rstrip(")")
        if match.group(2):
            assert int(match.group(2)) in items, f"{key}: ROADMAP item {match.group(2)} is not open"
        if reason == "api":
            assert re.search(rf"\b{option}\b", documents), (
                f"{key}: README.md and hand-written docs/ never name {option}")
        if match.group(3):
            test_file = ROOT / match.group(3)
            assert test_file.is_file(), f"{key}: {match.group(3)} does not exist"
            assert re.search(rf"\b{option}\s*=", test_file.read_text(encoding="utf-8")), (
                f"{key}: {match.group(3)} never passes {option}=")


def test_the_symbol_pass_flags_a_test_only_symbol_and_refuses_oracle(tmp_path):
    module = tmp_path / "src" / "pkg" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text("def used():\n    return 1\n\n\ndef reference():\n    return 1\n\n\n"
                      "def run():\n    return used()\n")
    for top in ("bench", "benchmarks", "examples"):
        (tmp_path / top).mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import reference, run\n\n\ndef test_run():\n"
        "    assert run() == reference()\n")
    defined, caller_less = census(tmp_path)
    assert "pkg/mod.py::reference" in defined
    assert caller_less == {"pkg/mod.py::reference", "pkg/mod.py::run"}
    assert not REASON.match("oracle")


def test_the_option_pass_flags_a_test_only_keyword_until_code_sets_it(tmp_path):
    module = tmp_path / "src" / "pkg" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text("def scale(values, factor=2):\n    return [v * factor for v in values]\n\n\n"
                      "def run():\n    return scale([1])\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import scale\n\n\ndef test_scale():\n    assert scale([1], factor=3) == [3]\n")
    key = "pkg/mod.py::scale(factor)"
    assert option_census(tmp_path)[1] == {key}
    assert stale_options({key: "api"}, tmp_path) == ([], [])

    cleared = tmp_path / "cleared"
    (cleared / "examples").mkdir(parents=True)
    for top in ("src", "tests"):
        (cleared / top).symlink_to(tmp_path / top)
    (cleared / "examples" / "demo.py").write_text(
        "from pkg.mod import scale\n\nprint(scale([2], factor=5))\n")
    assert option_census(cleared)[1] == set()
    assert stale_options({key: "api"}, cleared) == ([], [key])
    assert stale_options({"pkg/mod.py::scale(gone)": "api"}, cleared) == (
        ["pkg/mod.py::scale(gone)"], [])


def test_the_option_pass_flags_an_option_nothing_sets_but_not_state_or_wire_params(tmp_path):
    module = tmp_path / "src" / "pkg" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "from dataclasses import dataclass, field\n\n\n"
        "def scale(values, factor=2):\n    return [v * factor for v in values]\n\n\n"
        "@dataclass\nclass Config:\n    size: int = 1\n"
        "    _cache: dict = field(default_factory=dict)\n"
        "    seen: list = field(default_factory=list, init=False)\n\n\n"
        "class Holder:\n    def __init__(self, _depth=0):\n        self.size = 3\n\n\n"
        "class EthNamespace:\n    def get_balance(self, address, block='latest'):\n"
        "        return address, block\n\n\n"
        "def run():\n    return scale([1]), Config(), Holder()\n")
    (tmp_path / "tests").mkdir()
    defined, test_only, unset = option_census(tmp_path)
    assert defined == {"pkg/mod.py::scale(factor)", "pkg/mod.py::Config(size)",
                       "pkg/mod.py::EthNamespace.get_balance(block)"}
    assert test_only == set()
    assert unset == {"pkg/mod.py::scale(factor)", "pkg/mod.py::Config(size)"}
    assert stale_options({"pkg/mod.py::Config(size)": "api"}, tmp_path) == ([], [])

    cleared = tmp_path / "cleared"
    (cleared / "examples").mkdir(parents=True)
    for top in ("src", "tests"):
        (cleared / top).symlink_to(tmp_path / top)
    (cleared / "examples" / "demo.py").write_text(
        "from pkg.mod import Config\n\nconfig = Config()\nconfig.size = 4\n")
    assert option_census(cleared)[2] == {"pkg/mod.py::scale(factor)"}
    assert stale_options({"pkg/mod.py::Config(size)": "api"}, cleared) == (
        [], ["pkg/mod.py::Config(size)"])


def test_the_option_pass_resolves_a_callee_that_says_which_one_it_is(tmp_path):
    """A call through ``self``, ``cls``, a module, a constructor or an
    attribute the class builds sets only that callee's options; a shared
    bare name (another class's method, ``asyncio.run``, a script's own
    ``main``) sets nothing of them."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "sched.py").write_text(
        "import asyncio\n\n\n"
        "class Scheduler:\n    def run(self, until=None):\n        return until\n\n"
        "    def step(self, count=1):\n        return count\n\n\n"
        "class Fast(Scheduler):\n    def go(self):\n        return self.step(count=2)\n\n\n"
        "class Other:\n    def run(self, until=None):\n        return until\n\n"
        "    def go(self):\n        return self.run(until=5), asyncio.run(pause())\n\n\n"
        "async def pause():\n    return None\n")
    (package / "client.py").write_text(
        "class Client:\n    def request(self, method, params=None):\n"
        "        return method, params\n\n\n"
        "class Rest:\n    def request(self, method, body=None):\n        return method, body\n\n\n"
        "class Facade:\n    def __init__(self):\n        self.rest = Rest()\n\n"
        "    def call(self):\n        return self.rest.request('m', 1), Rest().request('n', 2)\n")
    (package / "cli.py").write_text("def main(argv=None):\n    return argv\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "def main(argv):\n    return argv\n\n\nmain(['x'])\n")
    (tmp_path / "tests").mkdir()
    assert option_census(tmp_path)[2] == {
        "pkg/sched.py::Scheduler.run(until)", "pkg/client.py::Client.request(params)",
        "pkg/cli.py::main(argv)"}
