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
from typing import Dict, Optional, Tuple, Union

from repro.errors import PayloadTooLargeError, ProtocolViolationError

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
}


@dataclass
class HttpRequest:
    """One parsed request: method, target path, lower-cased headers, body."""

    method: str
    target: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def path(self) -> str:
        """The target with any query string stripped."""
        return self.target.split("?", 1)[0]

    def wants_keep_alive(self) -> bool:
        """HTTP/1.1 default is keep-alive unless the client says close."""
        return self.headers.get("connection", "").lower() != "close"

    def is_websocket_upgrade(self) -> bool:
        """Whether this is an RFC 6455 upgrade request."""
        return ("websocket" in self.headers.get("upgrade", "").lower()
                and "upgrade" in self.headers.get("connection", "").lower())


def parse_head(data: Union[bytes, bytearray], max_bytes: int,
               scan_from: int = 0) -> Optional[Tuple[HttpRequest, int, int]]:
    """Parse one request head off the front of ``data``, synchronously.

    ``None`` while the blank line has not arrived (``scan_from`` skips bytes
    an earlier call searched); else the request, body still empty, and the
    offsets in ``data`` where its declared body starts and ends.  Framing is
    strict: ``Content-Length`` is ASCII digits only, duplicates must agree,
    any ``Transfer-Encoding`` is refused.  Raises :class:`ProtocolViolationError`
    on malformed bytes, :class:`PayloadTooLargeError` past ``max_bytes``.
    """
    end = data.find(b"\r\n\r\n", scan_from)
    if end > max_bytes - 4 or (end < 0 and len(data) > max_bytes):
        raise PayloadTooLargeError(
            f"request head exceeds the {max_bytes}-byte cap")
    if end < 0:
        return None
    try:
        request_line, *header_lines = data[:end].decode("latin-1").split("\r\n")
        method, target, _version = request_line.split(" ", 2)
    except ValueError:
        raise ProtocolViolationError("malformed HTTP request line") from None
    headers: Dict[str, str] = {}
    for line in header_lines:
        name, colon, value = line.partition(":")
        if not colon:
            raise ProtocolViolationError(f"malformed HTTP header {line!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
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
    return (HttpRequest(method=method.upper(), target=target, headers=headers),
            end + 4, end + 4 + int(length_text))


def format_response(status: int, body: bytes = b"",
                    content_type: str = "application/json",
                    keep_alive: bool = True,
                    extra_headers: Tuple[Tuple[str, str], ...] = ()) -> bytes:
    """One full HTTP/1.1 response, ready to write."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body
