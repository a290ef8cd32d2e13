"""Minimal HTTP/1.1 primitives for the asyncio gateway server.

Only what the JSON-RPC door needs: a synchronous request-head parser with
hard size caps and strict framing (the connection owns the buffer and the
deadlines), and response formatting with keep-alive semantics.  No
dependency beyond the standard library -- the container image ships no
aiohttp, and the surface here is four routes, so a hand-rolled parser is
smaller than a framework shim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple, Union

from repro.errors import (
    HttpVersionNotSupportedError,
    PayloadTooLargeError,
    ProtocolViolationError,
)

#: Response reason phrases for the status codes the server actually emits.
REASONS = {
    200: "OK",
    101: "Switching Protocols",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    426: "Upgrade Required",
    500: "Internal Server Error",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}

#: The request-line versions the server speaks; any other is answered 505.
VERSIONS = ("HTTP/1.1", "HTTP/1.0")


@dataclass
class HttpRequest:
    """One parsed request: method, target path, lower-cased headers, body,
    the request line's protocol version, and the lower-cased tokens of every
    ``Connection`` field line (RFC 9110 section 7.6.1)."""

    method: str
    target: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"
    connection: FrozenSet[str] = field(default=frozenset(), init=False)

    @property
    def path(self) -> str:
        """The target with any query string stripped."""
        return self.target.split("?", 1)[0]

    def wants_keep_alive(self) -> bool:
        """HTTP/1.1 default is keep-alive unless the client says close; an
        HTTP/1.0 connection stays open only when the client asks (RFC 9112
        section 9.3)."""
        if "close" in self.connection:
            return False
        return self.version != "HTTP/1.0" or "keep-alive" in self.connection

    def is_websocket_upgrade(self) -> bool:
        """Whether this is an RFC 6455 upgrade request."""
        return ("upgrade" in self.connection
                and "websocket" in self.headers.get("upgrade", "").lower())


def parse_head(data: Union[bytes, bytearray], max_bytes: int,
               scan_from: int = 0) -> Optional[Tuple[HttpRequest, int, int]]:
    """Parse one request head off the front of ``data``, synchronously.

    ``None`` while the blank line has not arrived (``scan_from`` skips bytes
    an earlier call searched); else the request, body still empty, and the
    offsets in ``data`` where its declared body starts and ends.  The head
    follows RFC 9112's grammar: a request line of exactly ``method SP target
    SP version``, no whitespace before a field line's colon or at its start
    (obs-fold), no empty field name.  Framing is strict: ``Content-Length`` is
    ASCII digits only, duplicates must agree, any ``Transfer-Encoding`` is
    refused.  Raises :class:`ProtocolViolationError` on malformed bytes,
    :class:`HttpVersionNotSupportedError` for a version other than HTTP/1.0
    or HTTP/1.1, :class:`PayloadTooLargeError` past ``max_bytes``.
    """
    end = data.find(b"\r\n\r\n", scan_from)
    if end > max_bytes - 4 or (end < 0 and len(data) > max_bytes):
        raise PayloadTooLargeError(
            f"request head exceeds the {max_bytes}-byte cap")
    if end < 0:
        return None
    request_line, *header_lines = data[:end].decode("latin-1").split("\r\n")
    try:
        method, target, version = request_line.split(" ")
    except ValueError:
        raise ProtocolViolationError("malformed HTTP request line") from None
    if not (method and target and version):
        raise ProtocolViolationError("malformed HTTP request line")
    if version not in VERSIONS:
        raise HttpVersionNotSupportedError(f"HTTP version {version[:16]!r} is not supported")
    headers: Dict[str, str] = {}
    connection = frozenset()
    for line in header_lines:
        name, colon, value = line.partition(":")
        if not colon or not name or name != name.strip():
            raise ProtocolViolationError(f"malformed HTTP header {line!r}")
        name, value = name.lower(), value.strip()
        if name == "connection":
            connection = connection.union(
                token.strip().lower() for token in value.split(","))
        elif name == "content-length" and headers.get(name, value) != value:
            raise ProtocolViolationError("conflicting content-length headers")
        headers[name] = value
    if "transfer-encoding" in headers:
        raise ProtocolViolationError(
            "transfer-encoding is not supported; send content-length")
    length_text = headers.get("content-length", "0")
    if not (length_text.isascii() and length_text.isdigit()):
        raise ProtocolViolationError(f"bad content-length {length_text!r}")
    if len(length_text) > 18 or int(length_text) > max_bytes:
        raise PayloadTooLargeError(
            f"request body of {length_text} bytes exceeds the {max_bytes}-byte cap")
    request = HttpRequest(method=method.upper(), target=target, headers=headers,
                          version=version)
    request.connection = connection
    return request, end + 4, end + 4 + int(length_text)


def format_response(status: int, body: bytes = b"",
                    content_type: str = "application/json",
                    keep_alive: bool = True,
                    extra_headers: Tuple[Tuple[str, str], ...] = ()) -> bytes:
    """One full HTTP/1.1 response, ready to write."""
    head = (f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n")
    for name, value in extra_headers:
        head += f"{name}: {value}\r\n"
    return (head + "\r\n").encode("latin-1") + body
