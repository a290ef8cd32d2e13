"""The JSON-RPC 2.0 gateway: one metered door to the whole stack.

:class:`JsonRpcGateway` dispatches validated requests to namespaced method
registries (``eth_*``, ``ipfs_*``, ``oflw3_*``) and supports batches and
notifications.  Every call takes one pass: its envelope is validated, its
result is computed, and its method, error code and latency are recorded once
in :class:`RequestMetrics`.

The gateway is transport-agnostic: :meth:`handle` consumes/produces plain
dicts (what an in-process client uses), :meth:`handle_raw` consumes a UTF-8
JSON body and produces the UTF-8 reply bytes (what the socket transport uses).
Both speak identical envelopes, so everything above the gateway is already
wire-shaped; a :class:`HexString` result stays bytes in process and becomes
``0x`` text only in those reply bytes.  Every other result is a plain value
on both paths.

:meth:`handle_raw` also keeps the reply text of pure ``eth_*`` reads in a
:class:`ReplyCache` and answers the same call from it until the served
node's version changes (``docs/networking.md``, "Reply cache").
"""

from __future__ import annotations

import inspect
import json
from itertools import repeat
from time import perf_counter
from typing import Any, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Union

from repro.errors import ReproError
from repro.chain.node import EthereumNode
from repro.ipfs.node import IpfsNode
from repro.ipfs.swarm import Swarm
from repro.obs import NULL_OBSERVABILITY
from repro.rpc.metrics import RequestMetrics
from repro.rpc.namespaces import (
    AnalyticsNamespace, EthNamespace, IpfsNamespace, ObsNamespace, Oflw3Namespace,
    ParallelNamespace,
)
from repro.rpc.protocol import (
    INTERNAL_ERROR, INVALID_PARAMS, INVALID_REQUEST, JSONRPC_VERSION, METHOD_NOT_FOUND,
    PARSE_ERROR, SERVER_ERROR, JsonRpcError, error_response, success_response,
)
from repro.utils.cache import LRUCache
from repro.utils.encoding import HexString
from repro.utils.serialization import reply_json

#: The reads whose reply is a function of the call and of the served node's
#: version alone.  ``eth_call`` and ``eth_estimateGas`` stay out (their block
#: context reads the simulated clock), and so do filters, subscriptions and
#: every other namespace.
CACHED_READS = frozenset({
    "eth_chainId", "eth_blockNumber", "eth_getBalance", "eth_getTransactionCount",
    "eth_getCode", "eth_getBlockByNumber", "eth_getTransactionByHash",
    "eth_getTransactionReceipt", "eth_getLogs",
})
#: The reply cache keeps at most this many replies, each at most this many
#: bytes of reply text and params together: 2 MiB at worst.
REPLY_CACHE_ENTRIES = 256
REPLY_CACHE_MAX_BYTES = 8 * 1024


class _Kept(bytes):
    """Reply text the reply cache holds, standing in for a result."""


class ReplyCache(LRUCache):
    """Reply text of :data:`CACHED_READS` calls, by method and params, all
    rendered at one :attr:`stamp` of the served node's version.

    Like the chain it answers for, it is used from the one thread that
    dispatches; a scrape from another thread only reads its counters.
    """

    def __init__(self) -> None:
        super().__init__(REPLY_CACHE_ENTRIES)
        #: The node version every kept reply was rendered at.
        self.stamp: Optional[int] = None
        #: Clears caused by a changed version, apart from capacity evictions.
        self.version_clears = 0

    def serve(self, stamp: int) -> None:
        """Hold replies rendered at ``stamp``: any other stamp drops them all."""
        if stamp != self.stamp:
            if len(self):
                self.clear()
                self.version_clears += 1
            self.stamp = stamp

    def snapshot(self) -> Dict[str, Any]:
        return {**super().snapshot(), "version_clears": self.version_clears}


_DECODER = json.JSONDecoder()
_SCAN = _DECODER.scan_once
_WHITESPACE = json.decoder.WHITESPACE.match


def _parse(text: str) -> Any:
    """``json.loads(text)``, in one C scanner pass when ``text`` starts with
    its value; json's decoder takes (and words the error of) any other."""
    try:
        value, end = _SCAN(text, 0)
    except StopIteration:
        return _DECODER.decode(text)
    if end != len(text) and _WHITESPACE(text, end).end() != len(text):
        raise json.JSONDecodeError("Extra data", text, _WHITESPACE(text, end).end())
    return value


#: A success envelope as ``success_response`` lays it out, cut around its id
#: and before its result (last): ``{"jsonrpc": "2.0", "id": `` and
#: ``, "result": ``.
_BEFORE_ID, _BEFORE_RESULT = (
    part.encode() for part in reply_json(success_response("\0", None))
    .removesuffix("null}").split(reply_json("\0")))
#: The same envelope with a slot for the rendered id and one for the result.
_SUCCESS = _BEFORE_ID + b"%s" + _BEFORE_RESULT + b"%s}"


def _encode_envelope(response: Dict[str, Any]) -> bytes:
    """One envelope, byte for byte ``json.dumps(response, default=str)`` as
    UTF-8.  An ``ipfs_cat`` payload goes in as the reply bytes it renders
    to."""
    result = response.get("result")
    if type(result) is not HexString:
        return reply_json(response).encode()
    return b"".join((_BEFORE_ID, reply_json(response["id"]).encode(), _BEFORE_RESULT,
                     *result.reply_pieces(), b"}"))


def _success_reply(request_id: Any, result: Any) -> bytes:
    """What ``_encode_envelope(success_response(request_id, result))``
    gives, with no envelope dict: a kept result goes straight into
    :data:`_SUCCESS`, beside its id (an ``int`` id rendered without the
    encoder)."""
    if type(result) is not _Kept:
        return _encode_envelope(success_response(request_id, result))
    return _SUCCESS % (b"%d" % request_id if type(request_id) is int
                       else reply_json(request_id).encode(), result)


def _rendered(response: Dict[str, Any], stamp: Optional[int]) -> Any:
    """A response as :meth:`JsonRpcGateway.handle` returns it: the envelope
    dict, or with a ``stamp`` its reply bytes."""
    return response if stamp is None else _encode_envelope(response)


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

    def __init__(self, node: Optional[EthereumNode] = None,
                 swarm: Optional[Swarm] = None) -> None:
        self._methods: Dict[str, Callable[..., Any]] = {}
        self._signatures: Dict[str, inspect.Signature] = {}
        #: Per method, the arity :meth:`_invoke` checks params against
        #: (``None``: only ``Signature.bind`` can tell).
        self._arities: Dict[str, Optional[_Arity]] = {}
        self.metrics = RequestMetrics()
        #: What :meth:`handle_raw` answers repeated reads from.
        self.replies = ReplyCache()

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

    # -- wiring ----------------------------------------------------------------

    def register(self, name: str, handler: Callable[..., Any]) -> None:
        """Register one method; a later registration of ``name`` wins."""
        self._methods[name] = handler
        self._signatures[name] = signature = inspect.signature(handler)
        self._arities[name] = _arity_of(signature)
        self.replies.clear()  # what a kept reply answered may have changed

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
        gateway's :class:`RequestMetrics` (so scenario reports show cache
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

        ``caches`` names the stack's live caches (``repro.system.stack._caches``): what
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

    def _call(self, entry: Any, stamp: Optional[int]) -> Any:
        """One envelope in one pass: its response, ``None`` for a notification.

        Without a ``stamp`` the response is the envelope dict.  With one (a
        body :meth:`handle_raw` answers from the reply cache) it is the
        envelope's reply bytes: a kept result is joined to its id with no
        dict in between.

        An envelope that is not a valid request answers ``-32600`` (its id
        echoed only when it is one) and is not counted.  A valid call runs
        :meth:`_result`; its method, error code and latency -- which spans
        reply cache and handler -- are recorded under one lock acquisition.
        """
        if not isinstance(entry, dict):
            return _rendered(error_response(None, INVALID_REQUEST, "request must be an object"),
                             stamp)
        request_id, method, params = entry.get("id"), entry.get("method"), entry.get("params")
        valid_id = request_id is None or (isinstance(request_id, (str, int, float))
                                          and type(request_id) is not bool)
        if entry.get("jsonrpc") != JSONRPC_VERSION:
            invalid = 'request must declare "jsonrpc": "2.0"'
        elif not isinstance(method, str) or not method:
            invalid = "method must be a non-empty string"
        elif params is not None and not isinstance(params, (list, dict)):
            invalid = "params must be an array or an object"
        elif not valid_id:
            invalid = "id must be a string or a number"
        else:
            invalid = None
        if invalid is not None:
            return _rendered(error_response(request_id if valid_id else None,
                                            INVALID_REQUEST, invalid), stamp)
        error = None
        started = perf_counter()
        try:
            result = self._result(method, params, stamp)
        except JsonRpcError as exc:
            error = exc
        finally:
            self.metrics.record(method, None if error is None else error.code,
                                (perf_counter() - started) * 1000.0)
        if "id" not in entry:  # a notification
            return None
        if error is not None:
            return _rendered({"jsonrpc": JSONRPC_VERSION, "id": request_id,
                              "error": error.to_error_object()}, stamp)
        if stamp is None:
            return success_response(request_id, result)
        return _success_reply(request_id, result)

    def _result(self, method: str, params: Any, stamp: Optional[int]) -> Any:
        """A call's result: with a ``stamp``, its reply text from the reply
        cache (a miss runs the handler and keeps the text); else its
        handler's result."""
        if stamp is None:
            return self._invoke(method, params)
        try:
            key = (method, repr(params))
        except RecursionError:  # nested nearly as deep as the parser allows
            return self._invoke(method, params)
        kept = self.replies.get(key)
        if kept is None:
            result = self._invoke(method, params)
            kept = _Kept(b"".join(result.reply_pieces()) if type(result) is HexString
                         else reply_json(result).encode())
            if len(key[1]) + len(kept) <= REPLY_CACHE_MAX_BYTES:
                self.replies.put(key, kept)
        return kept

    def _invoke(self, method: str, params: Any) -> Any:
        """Run one call's handler: check params, run it, normalize errors.

        The arity table admits what ``Signature.bind`` would; ``bind`` runs
        only on a call the table refuses (to word the error) or cannot judge.
        """
        handler = self._methods.get(method)
        if handler is None:
            raise JsonRpcError(METHOD_NOT_FOUND, f"method {method!r} not found")
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
                raise JsonRpcError(INVALID_PARAMS, f"invalid params for {method}: {exc}") from None
        try:
            return handler(**params) if named else handler(*params)
        except JsonRpcError:
            raise
        except ReproError as exc:
            raise JsonRpcError(SERVER_ERROR, str(exc),
                               data={"error_class": type(exc).__name__}) from exc
        except Exception as exc:  # noqa: BLE001 - a buggy handler must not kill the gateway
            raise JsonRpcError(INTERNAL_ERROR, f"internal error: {exc}") from exc

    def handle(self, payload: Any, stamp: Optional[int] = None
               ) -> Union[Dict[str, Any], List[Dict[str, Any]], bytes, List[bytes], None]:
        """Process a single request or a batch (a list of requests).

        Batch semantics follow JSON-RPC 2.0: responses come back in request
        order (minus notifications), an empty batch is an invalid request,
        and a batch of only notifications yields ``None``.  ``stamp`` is for
        :meth:`handle_raw` alone: the node version its calls may be answered
        from the reply cache at, and each response then comes back as its
        reply bytes.
        """
        if isinstance(payload, list):
            if not payload:
                return _rendered(error_response(None, INVALID_REQUEST, "batch must not be empty"),
                                 stamp)
            responses = [response for response in map(self._call, payload, repeat(stamp))
                         if response is not None]
            return responses or None
        return self._call(payload, stamp)

    def _stamp(self, payload: Any) -> Optional[int]:
        """The served node's version, read once for a body of cached reads
        alone; ``None`` for any other body, whose calls all run.  (A write
        in a batch would leave the reads after it a stale stamp.)"""
        if self.eth is None:
            return None
        try:  # one scan of the methods, in C for a batch
            if type(payload) is list:
                reads_only = CACHED_READS.issuperset(map(dict.get, payload, repeat("method")))
            else:
                reads_only = type(payload) is dict and payload.get("method") in CACHED_READS
        except TypeError:  # an entry that is not an object, or an unhashable method
            return None
        if not reads_only:
            return None
        stamp = self.eth.node.version
        self.replies.serve(stamp)
        return stamp

    def handle_raw(self, body: Union[bytes, str],
                   admit: Optional[Callable[[Any], None]] = None) -> bytes:
        """Wire transport: one JSON body in, the UTF-8 reply out (``b""`` for
        no reply) -- the bytes a transport frames as they are.

        ``body`` is UTF-8 (RFC 8259 section 8.1), parsed once: bytes that do
        not decode as UTF-8 are a parse error, and a leading byte-order mark
        is skipped.  ``admit`` sees the payload before dispatch and the
        :class:`JsonRpcError` it raises is the whole reply -- a transport's
        batch cap, no second parse.
        """
        try:
            # The decoded text is a temporary: a 636 kB body is not held twice.
            payload = _parse(body if isinstance(body, str)
                             else str(body, "utf-8", "surrogatepass").removeprefix("\ufeff"))
            if admit is not None:
                admit(payload)
        except JsonRpcError as exc:
            return _encode_envelope(error_response(None, exc.code, exc.message, exc.data))
        except (TypeError, ValueError, RecursionError) as exc:
            return _encode_envelope(error_response(None, PARSE_ERROR, f"parse error: {exc}"))
        stamp = self._stamp(payload)
        # Positional: ``handle`` is traced, and the tracer weighs its
        # positional arguments.
        response = self.handle(payload, stamp)
        if response is None:
            return b""
        if stamp is None:  # envelope dicts
            if isinstance(response, dict):
                return _encode_envelope(response)
            response = map(_encode_envelope, response)
        elif type(response) is bytes:
            return response
        return b"[" + b", ".join(response) + b"]"

    # -- convenience -------------------------------------------------------------
