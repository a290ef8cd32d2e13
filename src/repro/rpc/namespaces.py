"""Namespaced method registries the gateway serves.

Three namespaces mirror the three backends of the paper's deployment:

* ``eth_*`` (plus the dev-chain ``evm_mine``) over an
  :class:`~repro.chain.node.EthereumNode` -- the MetaMask/web3-to-node
  boundary.  Quantities are hex-encoded (``"0x..."``) as on real endpoints;
  call results and receipts stay JSON-native because the simulated chain's
  ABI is canonical JSON rather than packed bytes.
* ``ipfs_*`` over one or many :class:`~repro.ipfs.node.IpfsNode` instances
  (optionally resolved through a :class:`~repro.ipfs.swarm.Swarm`), the
  analogue of the IPFS HTTP API.  Payloads travel hex-encoded.
* ``oflw3_*`` wrapping the buyer backend's REST routes, so the DApp's
  application calls go through the same metered front door.

Every handler either returns a JSON-serializable value or raises; the
gateway translates :class:`~repro.errors.ReproError` subclasses into
``-32000`` responses whose ``data.error_class`` names the original type, so
in-process clients can rehydrate the exact exception.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, List, MutableMapping, Optional, Tuple, Union

from repro.chain.account import Address
from repro.chain.events import LogFilter
from repro.chain.node import EthereumNode
from repro.chain.transaction import Transaction, decode_payload
from repro.errors import ReproError
from repro.ipfs.node import IpfsNode
from repro.ipfs.swarm import Swarm
from repro.rpc.filters import FilterManager
from repro.rpc.protocol import (
    INVALID_PARAMS,
    JsonRpcError,
    METHOD_NOT_ALLOWED,
    SERVER_ERROR,
    from_quantity,
    to_quantity,
)
from repro.utils.encoding import HexString, from_hex

MethodTable = Dict[str, Callable[..., Any]]


# ---------------------------------------------------------------------------
# eth_* -- the chain namespace
# ---------------------------------------------------------------------------


#: Tags naming the chain head; as a log filter's ``to_block`` one follows it.
_HEAD_TAGS = ("latest", "pending", "safe", "finalized")


def _parse_block_tag(node: Any, tag: Any, field: str = "block") -> int:
    """Resolve a block parameter to a height against ``node.block_number``.

    Takes a tag (``None`` is ``"latest"``), an integer, an ``0x`` quantity or
    a decimal number; anything else, a bool included, is a ``-32602`` naming
    ``field``.
    """
    if tag is None or tag in _HEAD_TAGS:
        return node.block_number
    if tag == "earliest":
        return 0
    if isinstance(tag, int) and not isinstance(tag, bool):
        return tag
    if isinstance(tag, (str, float)):
        try:
            if isinstance(tag, str) and tag.startswith(("0x", "0X")):
                return int(tag, 16)
            return int(tag)
        except (ValueError, OverflowError):
            pass
    raise JsonRpcError(INVALID_PARAMS, f"unknown {field} tag {tag!r}")


def _require_object(value: Any, what: str) -> None:
    if value is not None and not isinstance(value, dict):
        raise JsonRpcError(INVALID_PARAMS, f"{what} must be an object")


def _hex_param(method: str, name: str, value: Any) -> bytes:
    """``from_hex(value)``, or a ``-32602`` naming the param; the message
    gives the length and the first bad offset, never the text."""
    try:
        return from_hex(value)
    except (TypeError, ValueError) as exc:
        raise JsonRpcError(INVALID_PARAMS,
                           f"invalid params for {method}: {name}: {exc}") from None


_TYPE_NAMES = {str: "a string", int: "an integer", bool: "a boolean"}

#: The most blocks one ``evm_mine`` call mines, all on the serving thread.
MAX_MINE_BLOCKS = 1_000


def _typed_param(method: str, name: str, value: Any, kind: type) -> Any:
    """``value`` when it is a ``kind`` (a bool is no ``int``, and only a bool
    is a ``bool``), or a ``-32602`` naming the param and the type it needs,
    never echoing the value."""
    if isinstance(value, kind) and isinstance(value, bool) == (kind is bool):
        return value
    raise JsonRpcError(INVALID_PARAMS, f"invalid params for {method}: {name} "
                                       f"must be {_TYPE_NAMES[kind]}")


def _log_filter_from_params(node: Any, criteria: Any) -> Optional[LogFilter]:
    """Build a :class:`LogFilter` from ``eth_getLogs``-style criteria.

    ``from_block`` / ``to_block`` take what :func:`_parse_block_tag` takes;
    ``None`` leaves that end open, and a head tag as ``to_block`` follows the
    head (an installed filter keeps matching new blocks).
    """
    _require_object(criteria, "log filter criteria")
    if not criteria:
        return None
    from_block, to_block = criteria.get("from_block"), criteria.get("to_block")
    arg_filters = criteria.get("arg_filters")
    _require_object(arg_filters, "arg_filters")
    return LogFilter(
        address=Address(criteria["address"]) if criteria.get("address") else None,
        event_name=criteria.get("event"),
        from_block=(0 if from_block is None
                    else _parse_block_tag(node, from_block, "from_block")),
        to_block=(None if to_block is None or to_block in _HEAD_TAGS
                  else _parse_block_tag(node, to_block, "to_block")),
        arg_filters=dict(arg_filters or {}),
    )


def _log_query(node: Any, criteria: Any) -> Tuple[Optional[LogFilter], Any, Any]:
    """``eth_getLogs`` criteria split into the filter and paging ``limit`` / ``cursor``."""
    _require_object(criteria, "log filter criteria")
    criteria = dict(criteria or {})
    limit = criteria.pop("limit", None)
    cursor = criteria.pop("cursor", None)
    return _log_filter_from_params(node, criteria), limit, cursor


def _probe(node: Any, call_object: Dict[str, Any]) -> Transaction:
    """The unsigned transaction ``eth_estimateGas`` prices for a web3 call
    object: ``from`` (default the zero address), ``to``, ``value``,
    ``data``, ``gas`` (default the block gas limit) and ``gasPrice``
    (default 0), at the sender's current nonce.  A field that does not
    parse is a ``-32602`` naming it, never echoing its value."""
    def field(name: str, parse: Callable[[Any], Any], default: Any) -> Any:
        value = call_object.get(name)
        if value is None:
            return default
        try:
            return parse(value)
        except (ReproError, TypeError, ValueError):
            raise JsonRpcError(INVALID_PARAMS, f"invalid params for eth_estimateGas: "
                                               f"{name} is malformed") from None

    sender = field("from", Address, Address("0x" + "00" * 20))
    return Transaction(
        sender=sender,
        to=field("to", Address, None),
        value=field("value", from_quantity, 0),
        data=field("data", from_hex, b""),
        nonce=node.get_transaction_count(sender),
        gas_limit=field("gas", from_quantity, node.chain.config.block_gas_limit),
        gas_price=field("gasPrice", from_quantity, 0),
    )


class EthNamespace:
    """``eth_*`` handlers over one node, plus subscription filters."""

    def __init__(self, node: EthereumNode) -> None:
        self.node = node
        self.filters = FilterManager(node)
        #: The ``repro.net.SubscriptionManager`` of the WebSocket connection
        #: whose message is being dispatched; ``None`` on any other call.
        self.subscriptions: Optional[Any] = None

    # -- metadata / accounts -------------------------------------------------

    def chain_id(self) -> str:
        """Network chain id as a hex quantity (Sepolia: 0xaa36a7)."""
        return to_quantity(self.node.chain_id)

    def block_number(self) -> str:
        """Height of the latest block as a hex quantity."""
        return to_quantity(self.node.block_number)

    def get_balance(self, address: str, block: Union[str, int, None] = "latest") -> str:
        """Balance of ``address`` in wei, as a hex quantity."""
        _parse_block_tag(self.node, block)  # historical state is not kept
        return to_quantity(self.node.get_balance(address))

    def get_transaction_count(self, address: str,
                              block: Union[str, int, None] = "latest") -> str:
        """Nonce of ``address``; ``"pending"`` counts queued transactions."""
        if block == "pending":
            return to_quantity(self.node.pending_nonce(address))
        _parse_block_tag(self.node, block)
        return to_quantity(self.node.get_transaction_count(address))

    def get_code_presence(self, address: str) -> bool:
        """Whether a contract is deployed at ``address`` (``eth_getCode``-ish)."""
        return self.node.is_contract(address)

    # -- blocks / transactions -----------------------------------------------

    def get_block_by_number(self, block: Union[str, int, None] = "latest",
                            full_transactions: bool = False) -> Dict[str, Any]:
        """Block by number/tag; transactions as hashes or full objects."""
        resolved = self.node.get_block(_parse_block_tag(self.node, block))
        return resolved.to_dict(_typed_param("eth_getBlockByNumber", "full_transactions",
                                             full_transactions, bool))

    def get_transaction_by_hash(self, tx_hash: str) -> Dict[str, Any]:
        """A pending or included transaction, as the node API renders it."""
        return self.node.get_transaction(
            _typed_param("eth_getTransactionByHash", "tx_hash", tx_hash, str)).to_dict()

    def get_transaction_receipt(self, tx_hash: str) -> Optional[Dict[str, Any]]:
        """Receipt of an included transaction (``None`` while pending)."""
        _typed_param("eth_getTransactionReceipt", "tx_hash", tx_hash, str)
        if not self.node.chain.has_receipt(tx_hash):
            return None
        return self.node.get_receipt(tx_hash).to_dict()

    def send_raw_transaction(self, raw: str) -> str:
        """Broadcast a hex-serialized signed transaction; returns its hash."""
        return self.node.send_transaction(Transaction.deserialize_raw(raw))

    # -- calls / estimation ---------------------------------------------------

    def call(self, call_object: Dict[str, Any],
             block: Union[str, int, None] = "latest") -> Any:
        """Gas-free read-only contract call (``{"to", "data", "from"}``)."""
        if not isinstance(call_object, dict) or not call_object.get("to"):
            raise JsonRpcError(INVALID_PARAMS, 'eth_call needs a call object with "to"')
        _parse_block_tag(self.node, block)
        payload = decode_payload(_hex_param("eth_call", "data",
                                            call_object.get("data") or "0x"))
        method = payload.get("method")
        if not method:
            raise JsonRpcError(INVALID_PARAMS, "eth_call data does not encode a method call")
        return self.node.call(
            call_object["to"], method, payload.get("args", []),
            caller=call_object.get("from"),
        )

    def estimate_gas(self, call_object: Dict[str, Any]) -> str:
        """Estimated gas for a web3 call object (``{"from", "to", "value", ...}``).

        Returned as a hex quantity.  The object needs no signature or nonce;
        :func:`_probe` reads ``from``, ``to``, ``value``, ``data``, ``gas``
        and ``gasPrice``.
        """
        if not isinstance(call_object, dict):
            raise JsonRpcError(INVALID_PARAMS, "eth_estimateGas needs a transaction object")
        return to_quantity(self.node.estimate_gas(_probe(self.node, call_object)))

    # -- logs ------------------------------------------------------------------

    def get_logs(self, criteria: Optional[Dict[str, Any]] = None) -> Any:
        """Log query; with ``limit``/``cursor`` in the criteria it pages."""
        log_filter, limit, cursor = _log_query(self.node, criteria)
        if limit is None and cursor is None:
            return [log.to_dict() for log in self.node.get_logs(log_filter)]
        try:
            page = self.node.get_logs_page(
                log_filter, limit=int(limit) if limit is not None else None,
                cursor=cursor,
            )
        except (TypeError, ValueError) as exc:
            # Bad limit/cursor values are the caller's mistake, not ours.
            raise JsonRpcError(INVALID_PARAMS, str(exc)) from None
        return page.to_dict()

    # -- filters ---------------------------------------------------------------

    def new_block_filter(self) -> str:
        """Install a filter that collects new block hashes; returns its id."""
        return self.filters.new_block_filter()

    def new_pending_transaction_filter(self) -> str:
        """Install a filter that collects pending transaction hashes."""
        return self.filters.new_pending_transaction_filter()

    def new_filter(self, criteria: Optional[Dict[str, Any]] = None) -> str:
        """Install a log filter over ``eth_getLogs``-style criteria."""
        return self.filters.new_log_filter(_log_filter_from_params(self.node, criteria))

    def get_filter_changes(self, filter_id: str) -> List[Any]:
        """Poll a filter: everything new since the previous poll."""
        return self.filters.changes(
            _typed_param("eth_getFilterChanges", "filter_id", filter_id, str))

    def get_filter_logs(self, filter_id: str) -> List[Dict[str, Any]]:
        """All logs a log filter matches, from its installation block."""
        return self.filters.logs(
            _typed_param("eth_getFilterLogs", "filter_id", filter_id, str))

    def uninstall_filter(self, filter_id: str) -> bool:
        """Remove a filter; returns whether it existed."""
        return self.filters.uninstall(
            _typed_param("eth_uninstallFilter", "filter_id", filter_id, str))

    # -- push subscriptions ------------------------------------------------------
    #
    # Push needs a connection to write down unprompted.  The WebSocket server
    # binds its connection's SubscriptionManager to ``subscriptions`` around
    # the one synchronous ``handle_raw`` of each message; on any other call
    # (HTTP, in process) these two answer ``-32004`` pointing at ``/ws``.

    def _subscriptions(self, refusal: str) -> Any:
        if self.subscriptions is None:
            raise JsonRpcError(METHOD_NOT_ALLOWED, refusal)
        return self.subscriptions

    def subscribe(self, kind: str, criteria: Optional[Dict[str, Any]] = None) -> str:
        """Install a push subscription (``newHeads``, ``newPendingTransactions``
        or ``logs``).  WebSocket connections only -- see ``docs/networking.md``."""
        subscriptions = self._subscriptions(
            "eth_subscribe needs a connection to push notifications down; "
            "connect to the server's /ws WebSocket endpoint")
        return subscriptions.subscribe(
            kind, _log_filter_from_params(self.node, criteria) if kind == "logs" else None)

    def unsubscribe(self, subscription_id: str) -> bool:
        """Cancel a push subscription installed by ``eth_subscribe``.
        WebSocket connections only -- see ``docs/networking.md``."""
        subscriptions = self._subscriptions(
            "eth_unsubscribe needs the WebSocket connection that installed "
            "the subscription; connect to the server's /ws endpoint")
        return subscriptions.unsubscribe(str(subscription_id))

    # -- dev-chain extensions ---------------------------------------------------

    def evm_mine(self, blocks: int = 1) -> List[str]:
        """Explicitly mine ``blocks`` blocks, 1 to 1000 (anvil/ganache-style helper)."""
        if not 1 <= _typed_param("evm_mine", "blocks", blocks, int) <= MAX_MINE_BLOCKS:
            raise JsonRpcError(INVALID_PARAMS, f"invalid params for evm_mine: blocks "
                                               f"must be 1 to {MAX_MINE_BLOCKS}")
        return [block.hash for block in self.node.mine(blocks)]

    def methods(self) -> MethodTable:
        """The method table this namespace contributes."""
        return {
            "eth_chainId": self.chain_id,
            "eth_blockNumber": self.block_number,
            "eth_getBalance": self.get_balance,
            "eth_getTransactionCount": self.get_transaction_count,
            "eth_getCode": self.get_code_presence,
            "eth_getBlockByNumber": self.get_block_by_number,
            "eth_getTransactionByHash": self.get_transaction_by_hash,
            "eth_getTransactionReceipt": self.get_transaction_receipt,
            "eth_sendRawTransaction": self.send_raw_transaction,
            "eth_call": self.call,
            "eth_estimateGas": self.estimate_gas,
            "eth_getLogs": self.get_logs,
            "eth_newBlockFilter": self.new_block_filter,
            "eth_newPendingTransactionFilter": self.new_pending_transaction_filter,
            "eth_newFilter": self.new_filter,
            "eth_getFilterChanges": self.get_filter_changes,
            "eth_getFilterLogs": self.get_filter_logs,
            "eth_uninstallFilter": self.uninstall_filter,
            "eth_subscribe": self.subscribe,
            "eth_unsubscribe": self.unsubscribe,
            "evm_mine": self.evm_mine,
        }


# ---------------------------------------------------------------------------
# ipfs_* -- the storage namespace
# ---------------------------------------------------------------------------


class IpfsNamespace:
    """``ipfs_*`` handlers over registered nodes and/or a swarm.

    Methods take an optional ``node`` parameter (node name or peer id); when
    omitted and exactly one node is known, that node serves the request --
    the single-daemon deployment of the paper's demo.
    """

    def __init__(self, swarm: Optional[Swarm] = None) -> None:
        self.swarm = swarm
        self._nodes: Dict[str, IpfsNode] = {}

    def register_node(self, node: IpfsNode) -> None:
        """Expose ``node`` through the namespace (idempotent, by name)."""
        self._nodes[node.name] = node

    def _resolve(self, method: str, node: Optional[str]) -> IpfsNode:
        if node is not None:
            _typed_param(method, "node", node, str)
            if node in self._nodes:
                return self._nodes[node]
            if self.swarm is not None:
                for candidate in self.swarm.nodes():
                    if candidate.name == node or candidate.peer_id == node:
                        return candidate
            raise JsonRpcError(INVALID_PARAMS, f"unknown IPFS node {node!r}")
        candidates = list(self._nodes.values()) or (
            self.swarm.nodes() if self.swarm is not None else []
        )
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise JsonRpcError(SERVER_ERROR, "no IPFS node attached to this gateway")
        raise JsonRpcError(
            INVALID_PARAMS,
            f'multiple IPFS nodes served; pass "node" (one of '
            f"{sorted(c.name for c in candidates)})",
        )

    # -- handlers --------------------------------------------------------------

    def add(self, data: str, node: Optional[str] = None, pin: bool = True) -> Dict[str, Any]:
        """Add hex-encoded ``data``; returns the CID plus size accounting."""
        target = self._resolve("ipfs_add", node)
        if not isinstance(pin, bool):
            raise JsonRpcError(INVALID_PARAMS,
                               "invalid params for ipfs_add: pin must be true or false")
        result = target.add_bytes(_hex_param("ipfs_add", "data", data), pin=pin)
        return {
            "cid": result.cid_string,
            "size": result.size,
            "num_blocks": result.num_blocks,
        }

    def cat(self, cid: str, node: Optional[str] = None) -> HexString:
        """Return the hex-encoded payload behind ``cid``.

        In process the result is the payload's bytes; only the wire reply
        renders them as ``0x`` text (see :class:`HexString`)."""
        return HexString(self._resolve("ipfs_cat", node).cat(cid))

    def pin(self, cid: str, node: Optional[str] = None) -> Dict[str, Any]:
        """Pin ``cid`` on the node (fetching it from peers if needed)."""
        self._resolve("ipfs_pin", node).pin(cid)
        return {"pinned": cid}

    def stat(self, cid: str, node: Optional[str] = None) -> Dict[str, Any]:
        """Size and block-count of a DAG, like ``ipfs object stat``."""
        return self._resolve("ipfs_stat", node).stat(cid)

    def methods(self) -> MethodTable:
        """The method table this namespace contributes."""
        return {
            "ipfs_add": self.add,
            "ipfs_cat": self.cat,
            "ipfs_pin": self.pin,
            "ipfs_stat": self.stat,
        }


# ---------------------------------------------------------------------------
# oflw3_* -- the marketplace application namespace
# ---------------------------------------------------------------------------


class Oflw3Namespace:
    """``oflw3_*`` handlers wrapping buyer-backend REST routes.

    Several backends (one per concurrent task's buyer) can mount on one
    gateway; the optional ``backend`` parameter selects one by its buyer
    wallet address.  Non-2xx REST responses become ``-32000`` errors whose
    ``data`` carries the HTTP status and ``error_class: "WebError"`` so SDK
    callers see the same exception the in-process REST client raised.

    A backend is served while its buyer holds it, not kept alive by the
    gateway: it reaches the gateway through its wallet's client, so a strong
    mount would tie every finished task to the gateway in a reference cycle.
    """

    def __init__(self) -> None:
        self._backends: MutableMapping[str, Any] = weakref.WeakValueDictionary()

    def register_backend(self, backend: Any) -> str:
        """Mount ``backend`` (keyed by its buyer address); returns the key."""
        key = backend.wallet.address
        self._backends[key] = backend
        return key

    def _resolve(self, backend: Optional[str]) -> Any:
        if backend is not None:
            if backend in self._backends:
                return self._backends[backend]
            raise JsonRpcError(INVALID_PARAMS, f"unknown backend {backend!r}")
        if len(self._backends) == 1:
            return next(iter(self._backends.values()))
        if not self._backends:
            raise JsonRpcError(SERVER_ERROR, "no buyer backend attached to this gateway")
        raise JsonRpcError(
            INVALID_PARAMS,
            f'multiple backends served; pass "backend" (one of '
            f"{sorted(self._backends)})",
        )

    def _rest(self, backend: Optional[str], method: str, path: str,
              json_body: Optional[Dict[str, Any]] = None) -> Any:
        from repro.web.client import RestClient

        response = RestClient(self._resolve(backend)).request(
            method, path, json_body=json_body
        )
        if not response.ok:
            body = response.json()
            message = body.get("error") if isinstance(body, dict) else str(body)
            error_class = (body.get("error_class") if isinstance(body, dict) else None)
            raise JsonRpcError(
                SERVER_ERROR,
                message or f"{method} {path} failed ({response.status})",
                data={"http_status": response.status,
                      "error_class": error_class or "WebError"},
            )
        return response.json()

    # -- handlers --------------------------------------------------------------

    def health(self, backend: Optional[str] = None) -> Any:
        """The backend's liveness/info route (``GET /api/health``)."""
        return self._rest(backend, "GET", "/api/health")

    def deploy_task(self, spec: Dict[str, Any], budget_wei: int,
                    backend: Optional[str] = None) -> Any:
        """Deploy an FLTask contract with an escrowed budget (Step 1)."""
        return self._rest(backend, "POST", "/api/task",
                          {"spec": spec, "budget_wei": budget_wei})

    def task(self, address: str, backend: Optional[str] = None) -> Any:
        """On-chain task summary: spec, budget, owners, CID count."""
        return self._rest(backend, "GET", f"/api/task/{address}")

    def task_cids(self, address: str, backend: Optional[str] = None) -> Any:
        """The submitted model CIDs and their uploaders (Step 5)."""
        return self._rest(backend, "GET", f"/api/task/{address}/cids")

    def retrieve_models(self, address: str,
                        num_samples: Optional[Dict[str, int]] = None,
                        backend: Optional[str] = None) -> Any:
        """Fetch every submitted model from IPFS (Step 6)."""
        return self._rest(backend, "POST", f"/api/task/{address}/retrieve",
                          {"num_samples": num_samples or {}})

    def aggregate(self, address: str, algorithm: Optional[str] = None,
                  backend: Optional[str] = None) -> Any:
        """One-shot aggregate the retrieved models (Step 7a)."""
        body = {"algorithm": algorithm} if algorithm else {}
        return self._rest(backend, "POST", f"/api/task/{address}/aggregate", body)

    def compute_incentives(self, address: str, method: str = "leave_one_out",
                           options: Optional[Dict[str, Any]] = None,
                           backend: Optional[str] = None) -> Any:
        """Score contributions (leave-one-out / Shapley) (Step 7b)."""
        body = {"method": method}
        body.update(options or {})
        return self._rest(backend, "POST", f"/api/task/{address}/incentives", body)

    def pay_owners(self, address: str, reserve_fraction: float = 0.0,
                   min_payment_wei: int = 0, backend: Optional[str] = None) -> Any:
        """Distribute the escrowed budget by contribution (Step 7c)."""
        return self._rest(
            backend, "POST", f"/api/task/{address}/pay",
            {"reserve_fraction": reserve_fraction, "min_payment_wei": min_payment_wei},
        )

    def report(self, address: str, backend: Optional[str] = None) -> Any:
        """The consolidated task report (accuracy, payments, timing)."""
        return self._rest(backend, "GET", f"/api/task/{address}/report")

    def methods(self) -> MethodTable:
        """The method table this namespace contributes."""
        return {
            "oflw3_health": self.health,
            "oflw3_deployTask": self.deploy_task,
            "oflw3_task": self.task,
            "oflw3_taskCids": self.task_cids,
            "oflw3_retrieveModels": self.retrieve_models,
            "oflw3_aggregate": self.aggregate,
            "oflw3_computeIncentives": self.compute_incentives,
            "oflw3_payOwners": self.pay_owners,
            "oflw3_report": self.report,
        }


class AnalyticsNamespace:
    """``analytics_*`` methods over the current :class:`repro.analytics.AnalyticsFeeder`.

    Mounted by :meth:`JsonRpcGateway.attach_analytics` with a resolver, not
    a feeder: a node restart or a follower's recovery replaces the feeder,
    and each call must reach the live one.  Every handler
    answers from the columnar replica (draining the WAL first, so results
    are read-your-writes fresh) -- the HTAP read side of the stack.
    ``analytics_query`` takes the same criteria object as ``eth_getLogs``
    and is parity-identical to it at equal chain height.
    """

    def __init__(self, current: Callable[[], Any]) -> None:
        self._current = current

    @property
    def feeder(self) -> Any:
        return self._current()

    def status(self) -> Dict[str, Any]:
        """Replica freshness (``applied_seq``, lag) and per-table row counts."""
        feeder = self.feeder
        feeder.drain()
        return feeder.status()

    def query(self, criteria: Optional[Dict[str, Any]] = None) -> Any:
        """Log query served from the replica columns (``eth_getLogs`` shape).

        With ``limit``/``cursor`` in the criteria it pages with the same
        cursor semantics as the scan path; otherwise it returns the full
        match list.
        """
        log_filter, limit, cursor = _log_query(self.feeder, criteria)
        if limit is None and cursor is None:
            return [log.to_dict() for log in self.feeder.logs(log_filter)]
        try:
            page = self.feeder.logs_page(
                log_filter, limit=int(limit) if limit is not None else None,
                cursor=cursor,
            )
        except (TypeError, ValueError) as exc:
            raise JsonRpcError(INVALID_PARAMS, str(exc)) from None
        return page.to_dict()

    def leaderboard(self, name: str = "payments", limit: int = 10) -> Any:
        """A marketplace leaderboard (payments / submissions / fees)."""
        from repro.analytics.store import LEADERBOARDS
        from repro.errors import AnalyticsError

        limit = _typed_param("analytics_leaderboard", "limit", limit, int)
        if _typed_param("analytics_leaderboard", "name", name, str) not in LEADERBOARDS:
            raise JsonRpcError(INVALID_PARAMS,
                               "invalid params for analytics_leaderboard: name "
                               f"must be one of {', '.join(LEADERBOARDS)}")
        try:
            return self.feeder.leaderboard(name, limit)
        except (AnalyticsError, ValueError) as exc:
            raise JsonRpcError(INVALID_PARAMS, str(exc)) from None

    def fee_summary(self) -> Dict[str, Any]:
        """Fee/gas statistics by transaction kind, from the rollup."""
        return self.feeder.fee_summary_by_kind()

    def chain_statistics(self) -> Dict[str, Any]:
        """Whole-chain totals from the pre-aggregated columns."""
        return self.feeder.chain_statistics()

    def series(self, event: str) -> List[Dict[str, Any]]:
        """The (block, args) time series of one event name."""
        return self.feeder.series(_typed_param("analytics_series", "event",
                                               event, str))

    def methods(self) -> MethodTable:
        """The method table this namespace contributes."""
        return {
            "analytics_status": self.status,
            "analytics_query": self.query,
            "analytics_leaderboard": self.leaderboard,
            "analytics_feeSummary": self.fee_summary,
            "analytics_chainStatistics": self.chain_statistics,
            "analytics_series": self.series,
        }


class ParallelNamespace:
    """``parallel_*`` methods over one node's chain (``repro.batchverify``).

    Mounted unconditionally by :meth:`JsonRpcGateway.serve_node` -- like
    ``eth_*`` -- so operators can always ask whether deferred signature
    verification is on; when it is off, ``parallel_status`` reports
    ``batch_verify.enabled: false`` and no counters.
    """

    def __init__(self, node: Any) -> None:
        self.node = node

    def status(self) -> Dict[str, Any]:
        """Deferred signature verification: enabled flag and counters.

        The ``batch_verify`` block carries the engine's deferred-admission,
        settle and verify-pool fallback counters
        (:attr:`BatchVerifyEngine.stats`); only ``enabled: false`` when off.
        """
        batchverify = getattr(self.node.chain, "batchverify", None)
        return {"batch_verify": {
            "enabled": batchverify is not None,
            **(batchverify.stats if batchverify is not None else {}),
        }}

    def methods(self) -> MethodTable:
        """The method table this namespace contributes."""
        return {
            "parallel_status": self.status,
        }


class ObsNamespace:
    """``obs_*`` methods over one :class:`repro.obs.Observability` instance.

    Mounted by :meth:`JsonRpcGateway.attach_obs`; every handler reads the
    observability facade that instruments the serving node/cluster, so
    ``obs_metrics`` is this stack's ``/metrics`` endpoint and ``obs_trace``
    answers "where did this transaction's time go".
    """

    def __init__(self, obs: Any, caches: Callable[[], Dict[str, Any]]) -> None:
        self.obs = obs
        self._caches = caches

    def metrics(self) -> str:
        """The unified metrics registry in Prometheus text exposition format."""
        return self.obs.registry.render_prometheus()

    def metrics_json(self) -> Dict[str, Any]:
        """Deterministic JSON snapshot of every registered metric family."""
        return self.obs.registry.snapshot()

    def traces(self, limit: int = 20) -> List[Dict[str, Any]]:
        """Recorded trace ids (oldest first) with their span counts."""
        if _typed_param("obs_traces", "limit", limit, int) <= 0:
            raise JsonRpcError(INVALID_PARAMS,
                               f"limit must be positive, got {limit}")
        ids = self.obs.tracer.trace_ids()[:limit]
        return [
            {"spans": len(self.obs.tracer.spans_for(trace_id)),
             "trace_id": trace_id}
            for trace_id in ids
        ]

    def trace(self, trace_id: Optional[str] = None,
              include_wall: bool = False) -> List[Dict[str, Any]]:
        """The span tree of one trace (default: the sampled transaction trace)."""
        if trace_id is None:
            trace_id = self.obs.sample_trace_id()
        if trace_id is None:
            return []
        return self.obs.tracer.tree(_typed_param("obs_trace", "trace_id", trace_id, str),
                                    include_wall=include_wall)

    def top(self, count: int = 10) -> List[Dict[str, Any]]:
        """The top-``count`` per-phase cost table from the profiling hooks."""
        if _typed_param("obs_top", "count", count, int) <= 0:
            raise JsonRpcError(INVALID_PARAMS,
                               f"count must be positive, got {count}")
        return self.obs.profiler.top(count)

    def events(self, kind: Optional[str] = None,
               limit: int = 100) -> List[Dict[str, Any]]:
        """Structured events (reorgs, partitions, crashes), newest last."""
        if kind is not None:
            _typed_param("obs_events", "kind", kind, str)
        if _typed_param("obs_events", "limit", limit, int) <= 0:
            raise JsonRpcError(INVALID_PARAMS,
                               f"limit must be positive, got {limit}")
        return self.obs.event_log.events(kind=kind, limit=limit)

    def cache_stats(self) -> Dict[str, Any]:
        """Unified statistics for every registered cache (the one spelling)."""
        return {name: cache.snapshot()
                for name, cache in sorted(self._caches().items())}

    def methods(self) -> MethodTable:
        """The method table this namespace contributes."""
        return {
            "obs_metrics": self.metrics,
            "obs_metricsJson": self.metrics_json,
            "obs_traces": self.traces,
            "obs_trace": self.trace,
            "obs_top": self.top,
            "obs_events": self.events,
            "obs_cacheStats": self.cache_stats,
        }
