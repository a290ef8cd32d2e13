"""Minimal HTTP/1.1 primitives for the asyncio gateway server.

Only what the JSON-RPC door needs: request parsing off an asyncio
``StreamReader`` with hard size caps and read timeouts, and response
formatting with keep-alive semantics.  No dependency beyond the standard
library -- the container image ships no aiohttp, and the surface here is
four routes, so a hand-rolled parser is smaller than a framework shim.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

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


async def read_request(reader: asyncio.StreamReader, *,
                       max_bytes: int,
                       header_timeout: float,
                       body_timeout: float) -> Optional[HttpRequest]:
    """Parse one request off the stream; ``None`` on clean EOF (client left).

    ``header_timeout`` bounds the wait for the request head (for keep-alive
    connections this doubles as the idle timeout); ``body_timeout`` bounds
    the body read once a request is in flight, which is what defuses a
    slow-loris body.  Raises :class:`ProtocolViolationError` on malformed
    traffic (its subclass :class:`PayloadTooLargeError` on oversized) and
    :class:`asyncio.TimeoutError` on a stalled peer.
    """
    try:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=header_timeout)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests
        raise ProtocolViolationError("truncated HTTP request head") from None
    except asyncio.LimitOverrunError:
        raise PayloadTooLargeError(
            f"request head exceeds the {max_bytes}-byte cap") from None
    if len(head) > max_bytes:
        raise PayloadTooLargeError(
            f"request head exceeds the {max_bytes}-byte cap")
    try:
        text = head.decode("latin-1")
        request_line, *header_lines = text.split("\r\n")
        method, target, _version = request_line.split(" ", 2)
    except ValueError:
        raise ProtocolViolationError("malformed HTTP request line") from None
    headers: Dict[str, str] = {}
    for line in header_lines:
        if not line:
            continue
        name, _, value = line.partition(":")
        if not _:
            raise ProtocolViolationError(f"malformed HTTP header {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise ProtocolViolationError(
                f"bad content-length {length_text!r}") from None
        if length < 0 or length > max_bytes:
            raise PayloadTooLargeError(
                f"request body of {length} bytes exceeds the {max_bytes}-byte cap")
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=body_timeout)
            except asyncio.IncompleteReadError:
                raise ProtocolViolationError(
                    "connection closed mid-body") from None
    return HttpRequest(method=method.upper(), target=target,
                       headers=headers, body=body)


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
