"""Minimal HTTP/1.1 primitives for the asyncio gateway server.

Only what the JSON-RPC door needs: a synchronous request-head parser with
hard size caps and strict framing (the connection owns the buffer and the
deadlines), and response formatting with keep-alive semantics.  No
dependency beyond the standard library -- the container image ships no
aiohttp, and the surface here is four routes, so a hand-rolled parser is
smaller than a framework shim.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple, Union

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

#: The content types the server's replies carry: JSON, and ``/metrics``'s
#: Prometheus text.
CONTENT_TYPES = ("application/json", "text/plain; version=0.0.4")

_NO_TOKENS: FrozenSet[str] = frozenset()


class HttpRequest:
    """One parsed request: method, target path, lower-cased headers, body,
    the request line's protocol version, and the lower-cased tokens of every
    ``Connection`` field line (RFC 9110 section 7.6.1).

    ``parse_head`` leaves the body empty; a connection sets it to the bytes
    it sliced off its buffer (a ``bytearray``).  Two requests are equal when
    all six are."""

    __slots__ = ("method", "target", "headers", "body", "version", "connection")

    def __init__(self, method: str, target: str, headers: Dict[str, str],
                 body: Union[bytes, bytearray], version: str,
                 connection: FrozenSet[str]) -> None:
        self.method = method
        self.target = target
        self.headers = headers
        self.body = body
        self.version = version
        self.connection = connection

    def __eq__(self, other: object) -> bool:
        if type(other) is not HttpRequest:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    __hash__ = None  # type: ignore[assignment]  # mutable: ``body`` is set later

    def __repr__(self) -> str:
        return "HttpRequest(%s)" % ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__)

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
    follows RFC 9112's grammar: lines end in CRLF and hold no other CR or LF
    (section 2.2), a request line of exactly ``method SP target SP version``,
    no whitespace before a field line's colon or at its start (obs-fold), no
    empty field name.  Framing is strict: ``Content-Length`` is ASCII digits
    only, duplicates must agree, any ``Transfer-Encoding`` is refused.
    Raises :class:`ProtocolViolationError` on malformed bytes,
    :class:`HttpVersionNotSupportedError` for a version other than HTTP/1.0
    or HTTP/1.1, :class:`PayloadTooLargeError` past ``max_bytes``.

    One pass over the lines: each field line is split, checked and stored
    once, and the framing fields are read off the finished map.  Only a
    head that repeats a field name takes a second look at its lines.
    """
    end = data.find(b"\r\n\r\n", scan_from)
    if end > max_bytes - 4 or (end < 0 and len(data) > max_bytes):
        raise PayloadTooLargeError(
            f"request head exceeds the {max_bytes}-byte cap")
    if end < 0:
        return None
    text = data[:end].decode("latin-1")
    lines = text.split("\r\n")
    if text.count("\r") >= len(lines) or text.count("\n") >= len(lines):
        raise ProtocolViolationError("bare CR or LF in the HTTP request head")
    parts = lines[0].split(" ")
    if len(parts) != 3 or "" in parts:
        raise ProtocolViolationError("malformed HTTP request line")
    method, target, version = parts
    if version not in VERSIONS:
        raise HttpVersionNotSupportedError(f"HTTP version {version[:16]!r} is not supported")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if not colon or not name or name[0].isspace() or name[-1].isspace():
            raise ProtocolViolationError(f"malformed HTTP header {line!r}")
        headers[name.lower()] = value.strip()
    connection = _NO_TOKENS
    if len(headers) < len(lines) - 1:  # a name came twice: read every line of it
        connection = _repeated_fields(lines, headers)
    elif "connection" in headers:
        connection = _tokens(headers["connection"])
    if "transfer-encoding" in headers:
        raise ProtocolViolationError(
            "transfer-encoding is not supported; send content-length")
    length_text = headers.get("content-length", "0")
    if not length_text.isdecimal():  # in latin-1 text: ASCII digits only
        raise ProtocolViolationError(f"bad content-length {length_text!r}")
    if len(length_text) > 18 or (length := int(length_text)) > max_bytes:
        raise PayloadTooLargeError(
            f"request body of {length_text} bytes exceeds the {max_bytes}-byte cap")
    start = end + 4
    return (HttpRequest(method.upper(), target, headers, b"", version, connection),
            start, start + length)


def _tokens(value: str) -> FrozenSet[str]:
    return frozenset(token.strip().lower() for token in value.split(","))


def _repeated_fields(lines: List[str], headers: Dict[str, str]) -> FrozenSet[str]:
    """For a head that repeats a field name: refuse ``Content-Length`` lines
    that disagree, and return the tokens of every ``Connection`` line."""
    connection = _NO_TOKENS
    length = headers.get("content-length")
    for line in lines[1:]:
        name, _, value = line.partition(":")
        name = name.lower()
        if name == "connection":
            connection = connection.union(_tokens(value))
        elif name == "content-length" and value.strip() != length:
            raise ProtocolViolationError("conflicting content-length headers")
    return connection


def _reply_head(status: int, content_type: str, keep_alive: bool) -> Tuple[bytes, bytes]:
    """A reply head cut around its length: what comes before the digits, and
    what follows them up to the extra headers."""
    return ((f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
             f"Content-Type: {content_type}\r\nContent-Length: ").encode("latin-1"),
            f"\r\nConnection: {'keep-alive' if keep_alive else 'close'}\r\n".encode("latin-1"))


#: Every reply head the server writes, rendered once: by status, content
#: type and keep-alive.
_HEADS = {(status, content_type, keep_alive): _reply_head(status, content_type, keep_alive)
          for status in REASONS for content_type in CONTENT_TYPES
          for keep_alive in (True, False)}


def format_response(status: int, body: bytes = b"",
                    content_type: str = "application/json",
                    keep_alive: bool = True,
                    extra_headers: Tuple[Tuple[str, str], ...] = ()) -> bytes:
    """One full HTTP/1.1 response, ready to write.

    The head comes from :data:`_HEADS` (a status or content type outside it
    is rendered on the spot); only the length is formatted per reply, and
    the body is copied once, into the reply.
    """
    before, after = (_HEADS.get((status, content_type, keep_alive))
                     or _reply_head(status, content_type, keep_alive))
    if extra_headers:
        after += "".join(f"{name}: {value}\r\n"
                         for name, value in extra_headers).encode("latin-1")
    return b"%s%d%s\r\n%s" % (before, len(body), after, body)
