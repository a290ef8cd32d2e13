"""Auto-generated JSON-RPC method reference.

:func:`rpc_reference_markdown` renders every method a fully loaded gateway
serves -- name, parameters with defaults, and the handler's docstring
summary -- grouped by namespace.  ``docs/rpc.md`` is this function's output,
verbatim; a tier-1 test regenerates the reference and fails if the file has
drifted from the served surface, so the document cannot rot.

Regenerate with::

    PYTHONPATH=src python -m repro rpc --list --markdown > docs/rpc.md
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, List

HEADER = """\
# JSON-RPC method reference

All marketplace traffic crosses one versioned JSON-RPC 2.0 gateway
(`repro.rpc.JsonRpcGateway`).  This file lists every method a fully loaded
gateway serves (chain node + IPFS swarm + buyer backend + storage engine
attached), grouped by namespace.

> **Auto-generated** by `python -m repro rpc --list --markdown`; do not edit
> by hand.  A tier-1 test (`tests/rpc/test_docs.py`) regenerates it and
> fails when this file is out of sync with the served methods.

Envelopes are standard JSON-RPC 2.0 (single requests, notifications,
batches); `eth_*` quantities are hex strings; errors use the codes listed in
`README.md` (`-32700` ... `-32004`).
"""

_NAMESPACE_BLURBS = {
    "analytics": "The columnar HTAP replica (`repro.analytics`): freshness "
                 "status, replica-served log queries and pre-aggregated "
                 "rollups/leaderboards (mounted only when a replica is "
                 "attached).",
    "eth": "Chain access over `EthereumNode` -- the MetaMask/web3-to-node seam.",
    "evm": "Dev-chain extensions (explicit mining), as on Anvil/Hardhat.",
    "ipfs": "Content-addressed storage over `IpfsNode`/`Swarm` "
            "(hex payloads; optional `node` selects a daemon by name).",
    "oflw3": "The buyer backend's REST routes (deploy task, retrieve models, "
             "aggregate, pay).",
    "storage": "The durable storage engine (`repro.storage`): WAL, snapshot "
               "and LRU-cache statistics.",
    "obs": "The unified observability layer (`repro.obs`): Prometheus "
           "metrics, span traces, per-phase cost tables and structured "
           "events (mounted only when a run enables observability).",
}


def build_reference_gateway() -> Any:
    """A gateway with every namespace mounted (the documented surface).

    The fullest stack ``build_stack`` assembles -- chain node, IPFS swarm,
    storage engine, observability, an analytics replica over the engine's
    WAL -- plus what ``build_environment`` adds at runtime: one registered
    IPFS daemon and a buyer backend.
    """
    from repro.chain.keys import KeyPair
    from repro.data.synthetic_mnist import SyntheticMnistConfig, generate_synthetic_mnist
    from repro.ipfs.node import IpfsNode
    from repro.storage.engine import StorageEngine
    from repro.system.stack import build_stack
    from repro.web.backend import BuyerBackend
    from repro.web.wallet import MetaMaskWallet

    stack = build_stack(storage=StorageEngine(), observability=True,
                        analytics=True)
    ipfs = IpfsNode("docs", stack.swarm)
    stack.gateway.serve_ipfs_node(ipfs)
    wallet = MetaMaskWallet(KeyPair.from_label("docs-buyer"), stack.node)
    dataset = generate_synthetic_mnist(SyntheticMnistConfig(num_samples=40, seed=1))
    stack.gateway.serve_backend(
        BuyerBackend(wallet=wallet, ipfs=ipfs, test_dataset=dataset))
    return stack.gateway


def _signature_markdown(handler: Any) -> str:
    """Render a handler's parameters as ``name, opt=default`` markdown code."""
    try:
        signature = inspect.signature(handler)
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return ""
    parts: List[str] = []
    for parameter in signature.parameters.values():
        if parameter.name in ("self",):
            continue
        if parameter.default is inspect.Parameter.empty:
            parts.append(parameter.name)
        else:
            parts.append(f"{parameter.name}={parameter.default!r}")
    return ", ".join(parts)


def _summary(handler: Any) -> str:
    """First docstring line of a handler (one sentence, no trailing dot run)."""
    doc = inspect.getdoc(handler) or ""
    first = doc.splitlines()[0].strip() if doc else ""
    return first


def rpc_reference_markdown() -> str:
    """The full method reference as markdown (the contents of docs/rpc.md)."""
    gateway = build_reference_gateway()
    by_namespace: Dict[str, List[str]] = {}
    for name in gateway.methods():
        namespace = name.split("_", 1)[0]
        by_namespace.setdefault(namespace, []).append(name)

    lines = [HEADER]
    for namespace in sorted(by_namespace):
        lines.append(f"## `{namespace}_*`")
        lines.append("")
        blurb = _NAMESPACE_BLURBS.get(namespace)
        if blurb:
            lines.append(blurb)
            lines.append("")
        lines.append("| Method | Params | Description |")
        lines.append("|--------|--------|-------------|")
        for name in by_namespace[namespace]:
            handler = gateway._methods[name]
            params = _signature_markdown(handler)
            params_cell = f"`{params}`" if params else "--"
            lines.append(f"| `{name}` | {params_cell} | {_summary(handler)} |")
        lines.append("")
    lines.append(f"_{sum(len(v) for v in by_namespace.values())} methods served._")
    lines.append("")
    return "\n".join(lines)
