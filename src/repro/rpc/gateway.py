"""The JSON-RPC 2.0 gateway: one metered door to the whole stack.

:class:`JsonRpcGateway` dispatches validated requests to namespaced method
registries (``eth_*``, ``ipfs_*``, ``oflw3_*``), supports batches and
notifications, and runs every request through a middleware chain (metrics
first, then whatever the caller installed: rate limiters, allowlists...).

The gateway is transport-agnostic: :meth:`handle` consumes/produces plain
dicts (what an in-process client uses), :meth:`handle_raw` consumes a JSON
body and produces JSON text (what the socket transport uses).  Both speak
identical envelopes, so everything above the gateway is already wire-shaped.
"""

from __future__ import annotations

import inspect
import json
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Union

from repro.errors import ReproError
from repro.chain.node import EthereumNode
from repro.ipfs.node import IpfsNode
from repro.ipfs.swarm import Swarm
from repro.obs import NULL_OBSERVABILITY
from repro.rpc.middleware import RequestMetrics
from repro.rpc.namespaces import (
    AnalyticsNamespace,
    EthNamespace,
    IpfsNamespace,
    ObsNamespace,
    Oflw3Namespace,
    ParallelNamespace,
)
from repro.rpc.protocol import (
    INTERNAL_ERROR,
    INVALID_PARAMS,
    INVALID_REQUEST,
    JsonRpcError,
    METHOD_NOT_FOUND,
    PARSE_ERROR,
    RpcRequest,
    SERVER_ERROR,
    error_response,
    parse_request,
    success_response,
)
from repro.utils.encoding import HexString

Middleware = Callable[[RpcRequest, Callable[[RpcRequest], Any]], Any]

#: What ``json.dumps(response, default=str)`` builds anew on every call.
_ENCODER = json.JSONEncoder(default=str)


def _encode_envelope(response: Dict[str, Any]) -> str:
    """One envelope, byte for byte what ``_ENCODER`` makes of it; a
    :class:`HexString` result (``ipfs_cat``: 636 kB a model update) is spliced
    between the encoded head and ``"}``, not scanned for escapes it cannot
    hold.  ``success_response`` puts ``result`` last: the head is a prefix."""
    result = response.get("result")
    if type(result) is not HexString:
        return _ENCODER.encode(response)
    head = _ENCODER.encode({**response, "result": ""})
    return f'{head[:-2]}{result}"}}'


class _Arity(NamedTuple):
    """What ``Signature.bind`` checks of a handler whose parameters are all
    plain positional-or-keyword ones, read off the signature once."""

    required: int
    maximum: int
    names: FrozenSet[str]
    required_names: FrozenSet[str]

    def admits(self, params: Union[List[Any], Dict[str, Any], tuple]) -> bool:
        if isinstance(params, dict):
            return self.required_names <= params.keys() <= self.names
        return self.required <= len(params) <= self.maximum


def _arity_of(signature: inspect.Signature) -> Optional[_Arity]:
    """The arity record, or ``None`` for a signature it cannot express
    (``*args``, ``**kwargs``, keyword-only or positional-only parameters)."""
    parameters = signature.parameters.values()
    if any(p.kind is not p.POSITIONAL_OR_KEYWORD for p in parameters):
        return None
    required = frozenset(p.name for p in parameters if p.default is p.empty)
    return _Arity(len(required), len(parameters), frozenset(signature.parameters),
                  required)


def _describe_storage(engine: Any) -> Callable[[], Dict[str, Any]]:
    def storage_stats() -> Dict[str, Any]:
        """Inspect the attached storage engine: backend, WAL, snapshot, cache."""
        return engine.describe()

    return storage_stats


class JsonRpcGateway:
    """Versioned JSON-RPC 2.0 gateway over the chain/IPFS/backend stack."""

    def __init__(
        self,
        node: Optional[EthereumNode] = None,
        swarm: Optional[Swarm] = None,
        ipfs: Optional[IpfsNode] = None,
        middleware: Optional[Iterable[Middleware]] = None,
    ) -> None:
        self._methods: Dict[str, Callable[..., Any]] = {}
        self._signatures: Dict[str, inspect.Signature] = {}
        #: Per method, the arity ``_invoke`` checks params against (``None``:
        #: only ``Signature.bind`` can tell).
        self._arities: Dict[str, Optional[_Arity]] = {}
        self.metrics = RequestMetrics()
        self._middleware: List[Middleware] = [self.metrics, *(middleware or [])]
        #: Lazily composed middleware pipeline (rebuilt from _middleware once).
        self._pipeline: Optional[Callable[[RpcRequest], Any]] = None

        self.eth: Optional[EthNamespace] = None
        self.ipfs = IpfsNamespace(swarm=swarm)
        self.oflw3 = Oflw3Namespace()
        self.storage: Optional[Any] = None
        #: Observability facade (``repro.obs``); the no-op one until
        #: :meth:`attach_obs` mounts a real one.
        self.obs: Any = NULL_OBSERVABILITY
        #: Resolves the analytics feeder behind ``analytics_*`` at call time
        #: (see :meth:`attach_analytics`); nothing is mounted by default.
        self._current_analytics: Callable[[], Optional[Any]] = lambda: None
        if node is not None:
            self.serve_node(node)
        if swarm is not None:
            self.register_namespace(self.ipfs.methods())
        if ipfs is not None:
            self.serve_ipfs_node(ipfs)

    # -- wiring ----------------------------------------------------------------

    def register(self, name: str, handler: Callable[..., Any], replace: bool = True) -> None:
        """Register one method; later registrations win unless ``replace=False``."""
        if not replace and name in self._methods:
            raise ValueError(f"method {name} already registered")
        self._methods[name] = handler
        self._signatures[name] = signature = inspect.signature(handler)
        self._arities[name] = _arity_of(signature)

    def register_namespace(self, methods: Dict[str, Callable[..., Any]]) -> None:
        """Register a whole method table."""
        for name, handler in methods.items():
            self.register(name, handler)

    def serve_node(self, node: EthereumNode) -> "JsonRpcGateway":
        """Attach the chain node; exposes ``eth_*`` and ``parallel_*``."""
        self.eth = EthNamespace(node)
        self.register_namespace(self.eth.methods())
        self.register_namespace(ParallelNamespace(node).methods())
        return self

    def serve_ipfs_node(self, node: IpfsNode) -> "JsonRpcGateway":
        """Expose an IPFS node through the ``ipfs_*`` namespace (idempotent)."""
        self.ipfs.register_node(node)
        self.register_namespace(self.ipfs.methods())
        return self

    def serve_backend(self, backend: Any) -> str:
        """Mount a buyer backend under ``oflw3_*``; returns its routing key."""
        key = self.oflw3.register_backend(backend)
        self.register_namespace(self.oflw3.methods())
        return key

    def attach_storage(self, engine: Any) -> "JsonRpcGateway":
        """Expose a ``repro.storage`` engine through the gateway.

        Installs the engine's LRU read-cache statistics as a gauge on the
        :class:`RequestMetrics` middleware (so scenario reports show cache
        hits/misses next to request counts) and serves ``storage_stats``
        (full engine inspection, cache counters under ``cache``).
        """
        self.storage = engine
        self.metrics.attach_gauge("storage_cache", engine.cache.snapshot)
        self.register("storage_stats", _describe_storage(engine))
        return self

    def attach_obs(self, obs: Any,
                   caches: Callable[[], Dict[str, Any]]) -> "JsonRpcGateway":
        """Mount a ``repro.obs`` facade under ``obs_*``.

        ``caches`` names the stack's live caches (``Stack.caches``): what
        ``obs_cacheStats`` reports is what ``repro_cache_*`` samples.
        """
        self.obs = obs
        self.register_namespace(ObsNamespace(obs, caches).methods())
        return self

    def attach_analytics(self, current: Callable[[], Optional[Any]]
                         ) -> "JsonRpcGateway":
        """Mount the analytics replica under ``analytics_*``.

        ``current`` returns the feeder the chain holds *now* -- a restart or
        a follower's recovery replaces it, and a namespace that held the
        first one would keep answering from a replica that no longer exists.
        The feeder keeps serving the transparently routed reads
        (``eth_getLogs`` through the chain); this additionally exposes the
        replica's own surface -- freshness status, explicit columnar
        queries and the pre-aggregated rollups/leaderboards.
        """
        self._current_analytics = current
        self.register_namespace(AnalyticsNamespace(current).methods())
        return self

    @property
    def analytics(self) -> Optional[Any]:
        """The feeder behind ``analytics_*`` right now; ``None`` unmounted."""
        return self._current_analytics()

    def methods(self) -> List[str]:
        """Sorted names of every registered method."""
        return sorted(self._methods)

    # -- dispatch ---------------------------------------------------------------

    def _invoke(self, request: RpcRequest) -> Any:
        """Innermost stage: check params, run the handler, normalize errors.

        The arity table admits what ``Signature.bind`` would; ``bind`` runs
        only on a call the table refuses (to word the error) or cannot judge.
        """
        method = request.method
        handler = self._methods.get(method)
        if handler is None:
            raise JsonRpcError(METHOD_NOT_FOUND, f"method {method!r} not found")
        params = request.params
        if params is None:
            params = ()
        named = isinstance(params, dict)
        arity = self._arities[method]
        if arity is None or not arity.admits(params):
            try:
                if named:
                    self._signatures[method].bind(**params)
                else:
                    self._signatures[method].bind(*params)
            except TypeError as exc:
                raise JsonRpcError(
                    INVALID_PARAMS, f"invalid params for {method}: {exc}"
                ) from None
        try:
            return handler(**params) if named else handler(*params)
        except JsonRpcError:
            raise
        except ReproError as exc:
            raise JsonRpcError(
                SERVER_ERROR, str(exc), data={"error_class": type(exc).__name__}
            ) from exc
        except Exception as exc:  # noqa: BLE001 - a buggy handler must not kill the gateway
            raise JsonRpcError(INTERNAL_ERROR, f"internal error: {exc}") from exc

    def _run(self, request: RpcRequest) -> Any:
        """Run the middleware chain around :meth:`_invoke`."""
        if self._pipeline is None:
            def bind(mw, nxt) -> Callable[[RpcRequest], Any]:
                def step(req: RpcRequest) -> Any:
                    return mw(req, nxt)
                return step

            call_next: Callable[[RpcRequest], Any] = self._invoke
            for layer in reversed(self._middleware):
                call_next = bind(layer, call_next)
            self._pipeline = call_next
        return self._pipeline(request)

    def _handle_one(self, payload: Any) -> Optional[Dict[str, Any]]:
        """Process one envelope; returns None for notifications."""
        try:
            request = parse_request(payload)
        except JsonRpcError as exc:
            request_id = payload.get("id") if isinstance(payload, dict) else None
            return error_response(request_id, exc.code, exc.message, exc.data)
        try:
            result = self._run(request)
        except JsonRpcError as exc:
            if request.is_notification:
                return None
            return error_response(request.request_id, exc.code, exc.message, exc.data)
        if request.is_notification:
            return None
        return success_response(request.request_id, result)

    def handle(self, payload: Any) -> Union[Dict[str, Any], List[Dict[str, Any]], None]:
        """Process a single request or a batch (a list of requests).

        Batch semantics follow JSON-RPC 2.0: responses come back in request
        order (minus notifications), an empty batch is an invalid request,
        and a batch of only notifications yields ``None``.
        """
        if isinstance(payload, list):
            if not payload:
                return error_response(None, INVALID_REQUEST, "batch must not be empty")
            responses = [self._handle_one(entry) for entry in payload]
            responses = [response for response in responses if response is not None]
            return responses or None
        return self._handle_one(payload)

    def handle_raw(self, body: Union[bytes, str],
                   admit: Optional[Callable[[Any], None]] = None) -> str:
        """Wire transport: one JSON body in, JSON text out ("" for no reply).

        ``body`` is parsed once (undecodable bytes are a parse error);
        ``admit`` sees the payload before dispatch and the :class:`JsonRpcError`
        it raises is the whole reply -- a transport's batch cap, no second parse.
        """
        try:
            payload = json.loads(body)
            if admit is not None:
                admit(payload)
        except JsonRpcError as exc:
            return _ENCODER.encode(error_response(None, exc.code, exc.message, exc.data))
        except (TypeError, ValueError, RecursionError) as exc:
            return _ENCODER.encode(error_response(None, PARSE_ERROR, f"parse error: {exc}"))
        response = self.handle(payload)
        if response is None:
            return ""
        if isinstance(response, dict):
            return _encode_envelope(response)
        if any(type(entry.get("result")) is HexString for entry in response):
            return "[" + ", ".join(map(_encode_envelope, response)) + "]"
        return _ENCODER.encode(response)

    # -- convenience -------------------------------------------------------------

    def call(self, method: str, /, *params: Any, **named: Any) -> Any:
        """In-process convenience: dispatch one call, returning the raw result.

        Raises :class:`JsonRpcError` on failure -- used by the gateway's own
        tests; SDK users go through :class:`repro.rpc.client.MarketplaceClient`,
        which rehydrates library exceptions.
        """
        if params and named:
            raise ValueError("pass positional or named params, not both")
        request = RpcRequest(
            method=method,
            params=(dict(named) if named else list(params)),
            request_id=0,
        )
        return self._run(request)
