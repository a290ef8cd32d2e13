"""The unified ``MarketplaceClient`` SDK over the JSON-RPC gateway.

One client object fronts the whole stack through typed sub-clients::

    client = MarketplaceClient(gateway, default_ipfs_node=ipfs.name)
    client.eth.get_balance(address)          # -> int
    client.ipfs.add(payload_bytes)           # -> {"cid", "size", "num_blocks"}
    client.oflw3.deploy_task(spec, budget)   # -> backend route response

Every call is a real JSON-RPC envelope through the gateway (so its request
metrics count it); error envelopes are rehydrated back into the
:class:`~repro.errors.ReproError` subclass named by ``data.error_class``,
which keeps exception-level compatibility with the direct-call era.  Batches
amortize dispatch overhead::

    with client.batch() as batch:
        balance = batch.add("eth_getBalance", address)
        height = batch.add("eth_blockNumber")
    balance.result(), height.result()
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

import repro.errors as repro_errors
from repro.errors import ReproError, RpcError, UnknownTransactionError
from repro.chain.events import EventLog, LogFilter, LogPage
from repro.chain.node import RECEIPT_WAIT_BLOCKS, EthereumNode
from repro.chain.receipts import TransactionReceipt
from repro.chain.transaction import Transaction, encode_call
from repro.ipfs.node import IpfsNode
from repro.rpc.gateway import JsonRpcGateway
from repro.rpc.protocol import from_quantity, make_request, to_quantity
from repro.utils.encoding import to_hex


def _rehydrate_error(error: Dict[str, Any]) -> ReproError:
    """Turn an error envelope back into the richest exception available."""
    code = int(error.get("code", -32000))
    message = str(error.get("message", "RPC error"))
    data = error.get("data")
    error_class = data.get("error_class") if isinstance(data, dict) else None
    if error_class:
        candidate = getattr(repro_errors, error_class, None)
        if isinstance(candidate, type) and issubclass(candidate, ReproError):
            try:
                return candidate(message)
            except TypeError:
                pass  # unusual constructor; fall through to the generic error
    return RpcError(message, code=code, data=data)


class BatchCall:
    """Handle for one call inside a batch; resolves after ``execute()``."""

    def __init__(self, method: str) -> None:
        self.method = method
        self._resolved = False
        self._result: Any = None
        self._error: Optional[ReproError] = None

    def _resolve(self, result: Any = None, error: Optional[ReproError] = None) -> None:
        self._resolved = True
        self._result = result
        self._error = error

    def result(self) -> Any:
        """The call's result; raises its rehydrated error if it failed."""
        if not self._resolved:
            raise RpcError(f"batch containing {self.method} has not been executed")
        if self._error is not None:
            raise self._error
        return self._result


class RpcBatch:
    """Collects calls and sends them as one JSON-RPC batch envelope."""

    def __init__(self, gateway: JsonRpcGateway) -> None:
        self._gateway = gateway
        self._calls: List[BatchCall] = []
        self._envelopes: List[Dict[str, Any]] = []

    def __len__(self) -> int:
        return len(self._calls)

    def add(self, method: str, /, *params: Any, **named: Any) -> BatchCall:
        """Queue one call; returns its handle."""
        if params and named:
            raise ValueError("pass positional or named params, not both")
        call = BatchCall(method)
        self._calls.append(call)
        self._envelopes.append(
            make_request(method, dict(named) if named else list(params),
                         request_id=len(self._calls) - 1)
        )
        return call

    def execute(self) -> List[BatchCall]:
        """Send the batch; resolve every handle (errors stay lazy)."""
        if not self._calls:
            return []
        responses = self._gateway.handle(list(self._envelopes))
        by_id: Dict[Any, Dict[str, Any]] = {
            response.get("id"): response for response in (responses or [])
        }
        for index, call in enumerate(self._calls):
            response = by_id.get(index)
            if response is None:
                call._resolve(error=RpcError(f"no response for batch entry {index}"))
            elif "error" in response:
                call._resolve(error=_rehydrate_error(response["error"]))
            else:
                call._resolve(result=response.get("result"))
        return list(self._calls)

    def __enter__(self) -> "RpcBatch":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        if exc_type is None:
            self.execute()
        return False


class RpcTransport:
    """One gateway and the ids of the requests sent through it.

    A :class:`MarketplaceClient` and its typed sub-clients all send through
    one transport, which points at none of them: the sub-clients hold it
    rather than the client, so a dropped client is freed by reference
    counting alone.
    """

    def __init__(self, gateway: JsonRpcGateway) -> None:
        self.gateway = gateway
        self._next_id = 0

    def call(self, method: str, /, *params: Any, **named: Any) -> Any:
        """Send one JSON-RPC request; return the result or raise."""
        if params and named:
            raise ValueError("pass positional or named params, not both")
        self._next_id += 1
        envelope = make_request(
            method, dict(named) if named else list(params), request_id=self._next_id
        )
        response = self.gateway.handle(envelope)
        if response is None:  # pragma: no cover - requests always carry ids
            raise RpcError(f"no response for {method}")
        if "error" in response:
            raise _rehydrate_error(response["error"])
        return response.get("result")


class EthClient:
    """Typed ``eth_*`` sub-client (decodes hex quantities, rebuilds objects)."""

    def __init__(self, rpc: RpcTransport) -> None:
        self._rpc = rpc

    # -- metadata / accounts -------------------------------------------------

    @property
    def chain_id(self) -> int:
        return from_quantity(self._rpc.call("eth_chainId"))

    @property
    def block_number(self) -> int:
        return from_quantity(self._rpc.call("eth_blockNumber"))

    def get_balance(self, address: str) -> int:
        return from_quantity(self._rpc.call("eth_getBalance", address, "latest"))

    def get_transaction_count(self, address: str, block: Union[str, int] = "latest") -> int:
        return from_quantity(self._rpc.call("eth_getTransactionCount", address, block))

    # -- transactions ---------------------------------------------------------

    def send_raw_transaction(self, raw: str) -> str:
        return self._rpc.call("eth_sendRawTransaction", raw)

    def send_transaction(self, tx: Transaction) -> str:
        """Serialize a signed transaction and broadcast it."""
        return self.send_raw_transaction(tx.serialize_raw())

    def get_receipt(self, tx_hash: str) -> Optional[TransactionReceipt]:
        """The transaction's receipt, or ``None`` while it is unmined."""
        payload = self._rpc.call("eth_getTransactionReceipt", tx_hash)
        if payload is None:
            return None
        return TransactionReceipt.from_dict(payload)

    def wait_for_receipt(self, tx_hash: str) -> TransactionReceipt:
        """Poll for the receipt, mining a block per empty poll.

        Mirrors :meth:`EthereumNode.wait_for_receipt` call for call (check,
        then mine), so the submit-then-wait rhythm -- and with it the Fig. 7
        latency attribution -- is identical through the gateway.
        """
        for _ in range(RECEIPT_WAIT_BLOCKS):
            receipt = self.get_receipt(tx_hash)
            if receipt is not None:
                return receipt
            self.mine(1)
        receipt = self.get_receipt(tx_hash)
        if receipt is not None:
            return receipt
        raise UnknownTransactionError(
            f"transaction {tx_hash} not included after {RECEIPT_WAIT_BLOCKS} blocks"
        )

    def mine(self, blocks: int = 1) -> List[str]:
        """Explicitly mine blocks (the ``evm_mine`` dev extension)."""
        return self._rpc.call("evm_mine", blocks)

    # -- calls / estimation ----------------------------------------------------

    def call(self, contract_address: str, method: str,
             args: Optional[List[Any]] = None, caller: Optional[str] = None) -> Any:
        """Read-only contract call (``eth_call``); free of gas fees."""
        call_object: Dict[str, Any] = {
            "to": str(contract_address),
            "data": to_hex(encode_call(method, args or [])),
        }
        if caller is not None:
            call_object["from"] = str(caller)
        return self._rpc.call("eth_call", call_object)

    def estimate_gas(self, tx: Transaction) -> int:
        call_object = {"from": str(tx.sender), "value": to_quantity(tx.value),
                       "data": to_hex(tx.data), "gas": to_quantity(tx.gas_limit),
                       "gasPrice": to_quantity(tx.gas_price)}
        if tx.to is not None:
            call_object["to"] = str(tx.to)
        return from_quantity(self._rpc.call("eth_estimateGas", call_object))

    # -- blocks / logs -----------------------------------------------------------

    def get_logs(self, log_filter: Optional[LogFilter] = None,
                 limit: Optional[int] = None,
                 cursor: Optional[str] = None) -> Union[List[EventLog], LogPage]:
        """Query logs; with ``limit``/``cursor`` returns a :class:`LogPage`."""
        criteria = _criteria_from_filter(log_filter)
        if limit is None and cursor is None:
            payload = self._rpc.call("eth_getLogs", criteria)
            return [EventLog.from_dict(entry) for entry in payload]
        if limit is not None:
            criteria["limit"] = limit
        if cursor is not None:
            criteria["cursor"] = cursor
        payload = self._rpc.call("eth_getLogs", criteria)
        return LogPage(
            logs=[EventLog.from_dict(entry) for entry in payload["logs"]],
            next_cursor=payload.get("next_cursor"),
        )

    # -- filters -------------------------------------------------------------------

    def new_block_filter(self) -> str:
        return self._rpc.call("eth_newBlockFilter")

    def new_log_filter(self, log_filter: Optional[LogFilter] = None) -> str:
        return self._rpc.call("eth_newFilter", _criteria_from_filter(log_filter))

    def get_filter_changes(self, filter_id: str) -> List[Any]:
        return self._rpc.call("eth_getFilterChanges", filter_id)


def _criteria_from_filter(log_filter: Optional[LogFilter]) -> Dict[str, Any]:
    """Render a :class:`LogFilter` into ``eth_getLogs`` criteria."""
    if log_filter is None:
        return {}
    criteria: Dict[str, Any] = {}
    if log_filter.address is not None:
        criteria["address"] = str(log_filter.address)
    if log_filter.event_name is not None:
        criteria["event"] = log_filter.event_name
    if log_filter.from_block:
        criteria["from_block"] = log_filter.from_block
    if log_filter.to_block is not None:
        criteria["to_block"] = log_filter.to_block
    if log_filter.arg_filters:
        criteria["arg_filters"] = dict(log_filter.arg_filters)
    return criteria


class IpfsClient:
    """Typed ``ipfs_*`` sub-client bound to a default node."""

    def __init__(self, rpc: RpcTransport, default_node: Optional[str] = None) -> None:
        self._rpc = rpc
        self.default_node = default_node

    def _node(self, node: Optional[str]) -> Optional[str]:
        return node if node is not None else self.default_node

    def add(self, payload: bytes) -> Dict[str, Any]:
        """Add and pin bytes; returns ``{"cid", "size", "num_blocks"}``."""
        return self._rpc.call("ipfs_add", to_hex(bytes(payload)), self.default_node, True)

    def cat(self, cid: str, node: Optional[str] = None) -> bytes:
        # In process the result is a HexString: its bytes, never made text.
        return self._rpc.call("ipfs_cat", cid, self._node(node)).data


class Oflw3Client:
    """Typed ``oflw3_*`` sub-client bound to a default buyer backend."""

    def __init__(self, rpc: RpcTransport,
                 default_backend: Optional[str] = None) -> None:
        self._rpc = rpc
        self.default_backend = default_backend

    def _call(self, rpc_method: str, /, **named: Any) -> Any:
        if self.default_backend is not None and "backend" not in named:
            named["backend"] = self.default_backend
        return self._rpc.call(rpc_method, **named)

    def deploy_task(self, spec: Dict[str, Any], budget_wei: int) -> Dict[str, Any]:
        return self._call("oflw3_deployTask", spec=spec, budget_wei=budget_wei)

    def task(self, address: str) -> Dict[str, Any]:
        return self._call("oflw3_task", address=address)

    def task_cids(self, address: str) -> Dict[str, Any]:
        return self._call("oflw3_taskCids", address=address)

    def retrieve_models(self, address: str,
                        num_samples: Optional[Dict[str, int]] = None) -> Dict[str, Any]:
        return self._call("oflw3_retrieveModels", address=address,
                          num_samples=num_samples or {})

    def aggregate(self, address: str, algorithm: Optional[str] = None) -> Dict[str, Any]:
        return self._call("oflw3_aggregate", address=address, algorithm=algorithm)

    def compute_incentives(self, address: str, method: str = "leave_one_out",
                           **options: Any) -> Dict[str, Any]:
        return self._call("oflw3_computeIncentives", address=address,
                          method=method, options=options)

    def pay_owners(self, address: str, reserve_fraction: float = 0.0,
                   min_payment_wei: int = 0) -> Dict[str, Any]:
        return self._call("oflw3_payOwners", address=address,
                          reserve_fraction=reserve_fraction,
                          min_payment_wei=min_payment_wei)


class MarketplaceClient:
    """The one SDK object every marketplace actor holds."""

    def __init__(
        self,
        gateway: JsonRpcGateway,
        default_ipfs_node: Optional[str] = None,
        default_backend: Optional[str] = None,
    ) -> None:
        self.gateway = gateway
        self._rpc = RpcTransport(gateway)
        self.eth = EthClient(self._rpc)
        self.ipfs = IpfsClient(self._rpc, default_node=default_ipfs_node)
        self.oflw3 = Oflw3Client(self._rpc, default_backend=default_backend)

    # -- construction -----------------------------------------------------------

    @classmethod
    def for_node(cls, node: EthereumNode) -> "MarketplaceClient":
        """A client over a fresh gateway serving just the chain node."""
        return cls(JsonRpcGateway(node=node))

    def bound_to_ipfs(self, node: IpfsNode) -> "MarketplaceClient":
        """Share this gateway, defaulting IPFS calls to ``node``."""
        self.gateway.serve_ipfs_node(node)
        return MarketplaceClient(
            self.gateway,
            default_ipfs_node=node.name,
            default_backend=self.oflw3.default_backend,
        )

    def bound_to_backend(self, backend: Any) -> "MarketplaceClient":
        """Share this gateway, defaulting ``oflw3_*`` calls to ``backend``."""
        key = self.gateway.serve_backend(backend)
        return MarketplaceClient(
            self.gateway,
            default_ipfs_node=self.ipfs.default_node,
            default_backend=key,
        )

    # -- transport ---------------------------------------------------------------

    def call(self, method: str, /, *params: Any, **named: Any) -> Any:
        """Send one JSON-RPC request; return the result or raise."""
        return self._rpc.call(method, *params, **named)

    def batch(self) -> RpcBatch:
        """Start a batch; use as a context manager or call ``execute()``."""
        return RpcBatch(self.gateway)
