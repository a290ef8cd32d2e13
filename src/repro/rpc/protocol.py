"""JSON-RPC 2.0 envelopes: requests, responses and standard error codes.

This module is transport-agnostic and knows nothing about the marketplace:
it only validates/builds the wire shapes defined by the JSON-RPC 2.0
specification (single requests, batches, notifications) and defines the
error-code vocabulary the gateway speaks.

Error codes
-----------
========= ==================================================================
-32700    parse error (``handle_raw`` got a body that is not UTF-8 JSON)
-32600    invalid request (envelope is not a well-formed request object)
-32601    method not found
-32602    invalid params (arity/name mismatch against the handler)
-32603    internal error (handler raised something unexpected)
-32000    server error (the repro library rejected the operation; the
          ``data.error_class`` member names the :class:`ReproError` subclass)
-32001    filter not found (unknown/uninstalled subscription filter id)
-32004    method not allowed (``eth_subscribe`` on a non-WebSocket transport)
========= ==================================================================
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

JSONRPC_VERSION = "2.0"

PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603
SERVER_ERROR = -32000
FILTER_NOT_FOUND = -32001
METHOD_NOT_ALLOWED = -32004

#: Default human-readable messages per code (the spec's recommended texts).
ERROR_MESSAGES: Dict[int, str] = {
    PARSE_ERROR: "Parse error",
    INVALID_REQUEST: "Invalid Request",
    METHOD_NOT_FOUND: "Method not found",
    INVALID_PARAMS: "Invalid params",
    INTERNAL_ERROR: "Internal error",
    SERVER_ERROR: "Server error",
    FILTER_NOT_FOUND: "Filter not found",
    METHOD_NOT_ALLOWED: "Method not allowed",
}

#: An error ``message`` keeps at most this many characters (then ``...``), so
#: a reply never echoes an unbounded method name, tag, address or hash.
MAX_ERROR_MESSAGE_CHARS = 256


def bounded(text: str) -> str:
    """``text``, or its first :data:`MAX_ERROR_MESSAGE_CHARS` characters and ``...``."""
    if len(text) > MAX_ERROR_MESSAGE_CHARS:
        return text[:MAX_ERROR_MESSAGE_CHARS] + "..."
    return text


class JsonRpcError(Exception):
    """Internal control-flow exception the gateway turns into an error envelope.

    Handlers raise it; the gateway's one pass per call catches it and
    renders the error response.  It is deliberately *not* a
    :class:`~repro.errors.ReproError`: it never escapes the gateway.
    """

    def __init__(self, code: int, message: Optional[str] = None, data: Any = None) -> None:
        self.code = code
        self.message = message or ERROR_MESSAGES.get(code, "Server error")
        self.data = data
        super().__init__(f"[{self.code}] {self.message}")

    def to_error_object(self) -> Dict[str, Any]:
        """The ``error`` member of a JSON-RPC error response."""
        error: Dict[str, Any] = {"code": self.code, "message": bounded(self.message)}
        if self.data is not None:
            error["data"] = self.data
        return error


def make_request(method: str, params: Union[List[Any], Dict[str, Any], None] = None,
                 request_id: Any = 1) -> Dict[str, Any]:
    """Build a request envelope (what a client puts on the wire)."""
    envelope: Dict[str, Any] = {"jsonrpc": JSONRPC_VERSION, "method": method, "id": request_id}
    if params is not None:
        envelope["params"] = params
    return envelope


def success_response(request_id: Any, result: Any) -> Dict[str, Any]:
    """Build a success envelope."""
    return {"jsonrpc": JSONRPC_VERSION, "id": request_id, "result": result}


def error_response(request_id: Any, code: int, message: Optional[str] = None,
                   data: Any = None) -> Dict[str, Any]:
    """Build an error envelope (``id`` is null for undecodable requests)."""
    return {
        "jsonrpc": JSONRPC_VERSION,
        "id": request_id,
        "error": JsonRpcError(code, message, data).to_error_object(),
    }


# -- quantity encoding (the eth_* hex-number convention) ----------------------


def to_quantity(value: int) -> str:
    """Encode an integer as an ``0x``-prefixed hex quantity."""
    return hex(int(value))


def from_quantity(value: Union[str, int]) -> int:
    """Decode an ``0x`` hex quantity (integers pass through for convenience)."""
    if isinstance(value, int):
        return value
    if not isinstance(value, str) or not value.startswith(("0x", "0X")):
        raise ValueError(f"not a hex quantity: {value!r}")
    return int(value, 16)
