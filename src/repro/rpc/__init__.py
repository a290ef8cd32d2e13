"""The versioned JSON-RPC boundary of the reproduction (``repro.rpc``).

The paper's real deployment talks to Ethereum through a JSON-RPC endpoint
(MetaMask/web3 -> node) and to the buyer's Flask service through REST.  This
package makes that boundary explicit and singular: a transport-agnostic
JSON-RPC 2.0 gateway with namespaced method registries (``eth_*``,
``ipfs_*``, ``oflw3_*``), batch requests, polling subscription filters and
per-call request metrics -- plus the :class:`MarketplaceClient` SDK that
every higher layer (wallet, DApp facades, backend, CLI, simnet) routes its
stack access through.

Having one metered door is the architectural seam that future sharding,
caching and async work plugs into.

The names below resolve on first use, as in :mod:`repro.system`: a server
reaches this package through :mod:`repro.rpc.filters` and never runs the
client SDK.
"""

from importlib import import_module

_HOME = {
    "BatchCall": "client", "EthClient": "client", "IpfsClient": "client",
    "MarketplaceClient": "client", "Oflw3Client": "client", "RpcBatch": "client",
    "FilterManager": "filters",
    "JsonRpcGateway": "gateway",
    "RequestMetrics": "metrics",
    "INTERNAL_ERROR": "protocol", "INVALID_PARAMS": "protocol",
    "INVALID_REQUEST": "protocol", "JsonRpcError": "protocol",
    "METHOD_NOT_ALLOWED": "protocol", "METHOD_NOT_FOUND": "protocol",
    "PARSE_ERROR": "protocol", "SERVER_ERROR": "protocol",
    "from_quantity": "protocol", "make_request": "protocol",
    "to_quantity": "protocol",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
