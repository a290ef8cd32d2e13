"""Unit tests for repro.net.http: request-head framing and response bytes."""

import asyncio
import json

import pytest

from repro.errors import (
    HttpVersionNotSupportedError,
    PayloadTooLargeError,
    ProtocolViolationError,
)
from repro.net.http import format_response, parse_head
from repro.net.server import _Connection

from .test_connection import FakeTransport, call
from .test_http_server import make_server

CAP = 1024


def head(*lines: str) -> bytes:
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class TestParseHead:
    def test_incomplete_head_waits_for_more_bytes(self):
        assert parse_head(b"POST / HTTP/1.1\r\nHost: x\r\n", CAP) is None

    def test_request_line_and_lower_cased_headers(self):
        data = head("post /rpc?x=1 HTTP/1.1", "Host: node", "Content-Length: 5") + b"hello"
        request, body_start, body_end = parse_head(data, CAP)
        assert request.method == "POST"
        assert request.target == "/rpc?x=1"
        assert request.path == "/rpc"
        assert request.headers == {"host": "node", "content-length": "5"}
        assert request.body == b""
        assert data[body_start:body_end] == b"hello"

    def test_missing_content_length_means_empty_body(self):
        data = head("GET / HTTP/1.1", "Host: node")
        _, body_start, body_end = parse_head(data, CAP)
        assert body_start == body_end == len(data)

    def test_scan_from_resumes_the_search(self):
        data = head("GET / HTTP/1.1", "Host: node")
        request, _, _ = parse_head(data, CAP, scan_from=len(data) - 6)
        assert request.method == "GET"

    def test_malformed_request_line_rejected(self):
        with pytest.raises(ProtocolViolationError, match="request line"):
            parse_head(head("GARBAGE"), CAP)

    def test_header_without_colon_rejected(self):
        with pytest.raises(ProtocolViolationError, match="header"):
            parse_head(head("GET / HTTP/1.1", "no colon here"), CAP)

    def test_agreeing_duplicate_content_lengths_accepted(self):
        data = head("POST / HTTP/1.1", "Content-Length: 2", "Content-Length: 2")
        _, body_start, body_end = parse_head(data, CAP)
        assert body_end - body_start == 2

    def test_conflicting_content_lengths_rejected(self):
        with pytest.raises(ProtocolViolationError, match="conflicting"):
            parse_head(head("POST / HTTP/1.1", "Content-Length: 2", "Content-Length: 3"), CAP)

    def test_transfer_encoding_refused(self):
        with pytest.raises(ProtocolViolationError, match="transfer-encoding"):
            parse_head(head("POST / HTTP/1.1", "Transfer-Encoding: chunked"), CAP)

    @pytest.mark.parametrize("length", ["-1", "+5", "0x10", "five", "1\u00b2"])
    def test_non_digit_content_length_rejected(self, length):
        with pytest.raises(ProtocolViolationError, match="bad content-length") as caught:
            parse_head(head("POST / HTTP/1.1", f"Content-Length: {length}"), CAP)
        assert not isinstance(caught.value, PayloadTooLargeError)

    def test_body_over_the_cap_is_too_large(self):
        with pytest.raises(PayloadTooLargeError, match="body"):
            parse_head(head("POST / HTTP/1.1", f"Content-Length: {CAP + 1}"), CAP)

    def test_absurd_content_length_is_too_large_not_an_overflow(self):
        with pytest.raises(PayloadTooLargeError):
            parse_head(head("POST / HTTP/1.1", "Content-Length: " + "9" * 40), 10**30)

    def test_head_over_the_cap_is_too_large_even_before_it_ends(self):
        with pytest.raises(PayloadTooLargeError, match="head"):
            parse_head(b"GET / HTTP/1.1\r\nX: " + b"a" * CAP, CAP)

    def test_complete_head_longer_than_the_cap_is_too_large(self):
        with pytest.raises(PayloadTooLargeError):
            parse_head(head("GET / HTTP/1.1", "X: " + "a" * CAP), CAP)


class TestHeadGrammar:
    """RFC 9112's head grammar, not only its framing: each of these was once
    accepted, and a proxy in front may frame the body differently."""

    @pytest.mark.parametrize("lines", [
        # Whitespace between the field name and the colon (section 5.1).
        ("POST / HTTP/1.1", "Content-Length : 2"),
        # An obs-fold line (section 5.2), even one that looks like a header.
        ("POST / HTTP/1.1", "Host: x", " Content-Length: 2"),
        ("POST / HTTP/1.1", "Host: x", "\tContent-Length: 2"),
        # An empty field name.
        ("POST / HTTP/1.1", ": x"),
        # A request line that is not method SP target SP version.
        ("POST  / HTTP/1.1",),
        ("POST /  HTTP/1.1",),
        ("POST / HTTP/1.1 ",),
        ("POST /",),
    ])
    def test_a_malformed_head_is_refused(self, lines):
        with pytest.raises(ProtocolViolationError) as caught:
            parse_head(head(*lines) + b"{}", CAP)
        assert type(caught.value) is ProtocolViolationError

    @pytest.mark.parametrize("version", ["FOO/9", "HTTP/2.0", "HTTP/1.2", "http/1.1"])
    def test_a_version_other_than_1_0_or_1_1_is_not_supported(self, version):
        with pytest.raises(HttpVersionNotSupportedError, match="version"):
            parse_head(head(f"POST / {version}", "Content-Length: 2") + b"{}", CAP)

    @pytest.mark.parametrize("data, status", [
        (head("POST / HTTP/1.1", "Content-Length : 2") + b"{}", 400),
        (head("POST / HTTP/1.1", "Host: x", " Content-Length: 2") + b"{}", 400),
        (head("POST / HTTP/1.1", ": x"), 400),
        (head("POST  / HTTP/1.1"), 400),
        (head("POST / FOO/9", "Content-Length: 2") + b"{}", 505),
    ])
    def test_the_server_answers_once_and_closes(self, capped_server, data, status):
        transport = serve(capped_server, data)
        (reply,) = transport.written
        assert reply.startswith(b"HTTP/1.1 %d " % status)
        assert transport.closing

    def test_the_505_has_its_reason_phrase(self, capped_server):
        (reply,) = feed(capped_server, head("GET /healthz HTTP/2.0"))
        assert reply.startswith(b"HTTP/1.1 505 HTTP Version Not Supported\r\n")


class TestHttpRequest:
    @pytest.mark.parametrize("version, connection, keep_alive", [
        ("HTTP/1.1", None, True), ("HTTP/1.1", "keep-alive", True),
        ("HTTP/1.1", "close", False), ("HTTP/1.1", "Close", False),
        # HTTP/1.0 stays open only when asked (RFC 9112 section 9.3).
        ("HTTP/1.0", None, False), ("HTTP/1.0", "keep-alive", True),
        ("HTTP/1.0", "Keep-Alive", True), ("HTTP/1.0", "close", False),
        # Connection is a list of tokens (RFC 9110 section 7.6.1).
        ("HTTP/1.1", "close, TE", False), ("HTTP/1.1", "TE,Close", False),
        ("HTTP/1.1", "TE", True), ("HTTP/1.0", "keep-alive, TE", True),
        ("HTTP/1.0", "TE , Keep-Alive", True), ("HTTP/1.0", "keep-alive, close", False),
    ])
    def test_keep_alive_is_the_default(self, version, connection, keep_alive):
        lines = [f"GET / {version}"] + ([] if connection is None else [f"Connection: {connection}"])
        request, _, _ = parse_head(head(*lines), CAP)
        assert request.wants_keep_alive() is keep_alive

    def test_every_connection_line_counts(self):
        request, _, _ = parse_head(head("GET / HTTP/1.1", "Connection: TE",
                                        "Connection: close"), CAP)
        assert request.connection == {"te", "close"}
        assert not request.wants_keep_alive()

    @pytest.mark.parametrize("connection, upgrade", [
        ("keep-alive, Upgrade", True), ("Upgrade", True), ("upgrade,te", True),
        (None, False), ("notupgraded", False), ("upgrade-insecure", False),
    ])
    def test_websocket_upgrade_needs_the_upgrade_token(self, connection, upgrade):
        lines = ["GET /ws HTTP/1.1", "Upgrade: WebSocket"]
        if connection is not None:
            lines.append(f"Connection: {connection}")
        request, _, _ = parse_head(head(*lines), CAP)
        assert request.is_websocket_upgrade() is upgrade

    def test_websocket_upgrade_needs_the_upgrade_header(self):
        request, _, _ = parse_head(head("GET /ws HTTP/1.1", "Connection: upgrade"), CAP)
        assert not request.is_websocket_upgrade()


class TestFormatResponse:
    def test_status_line_headers_and_body(self):
        response = format_response(200, b'{"ok":1}')
        head_bytes, body = response.split(b"\r\n\r\n", 1)
        lines = head_bytes.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 200 OK"
        assert "Content-Type: application/json" in lines
        assert "Content-Length: 8" in lines
        assert "Connection: keep-alive" in lines
        assert body == b'{"ok":1}'

    def test_close_and_extra_headers(self):
        response = format_response(413, keep_alive=False,
                                   extra_headers=(("Retry-After", "1"),))
        assert response.startswith(b"HTTP/1.1 413 Payload Too Large\r\n")
        assert b"Connection: close\r\n" in response
        assert response.endswith(b"Retry-After: 1\r\n\r\n")

    def test_unknown_status_has_a_placeholder_reason(self):
        assert format_response(299).startswith(b"HTTP/1.1 299 Unknown\r\n")


def padded_head(size: int) -> bytes:
    """A complete GET head of exactly ``size`` bytes, terminator included."""
    start = b"GET / HTTP/1.1\r\nX-Pad: "
    return start + b"a" * (size - len(start) - 4) + b"\r\n\r\n"


def padded_post(length: int) -> bytes:
    """One ``eth_chainId`` call whose body is ``length`` bytes (JSON padded
    with whitespace)."""
    body = json.dumps(call("eth_chainId", [], 1)).encode()
    body += b" " * (length - len(body))
    return b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body


def serve(server, data: bytes) -> FakeTransport:
    """The transport one connection handed ``data`` wrote to (and closed,
    if it did)."""
    async def drive():
        connection = _Connection(server)
        connection.connection_made(transport)
        connection.data_received(data)
        connection.connection_lost(None)

    transport = FakeTransport()
    asyncio.run(drive())
    return transport


def feed(server, data: bytes):
    """What one connection handed ``data`` writes."""
    return serve(server, data).written


class TestEveryCapIsInclusive:
    """Exactly the cap is served; one byte more is refused."""

    def test_a_head_of_exactly_the_cap_parses(self):
        assert len(padded_head(CAP)) == CAP
        request, start, end = parse_head(padded_head(CAP), CAP)
        assert (request.method, start, end) == ("GET", CAP, CAP)

    def test_a_head_one_byte_over_the_cap_is_too_large(self):
        with pytest.raises(PayloadTooLargeError, match="head"):
            parse_head(padded_head(CAP + 1), CAP)

    def test_an_unterminated_buffer_of_exactly_the_cap_waits(self):
        assert parse_head(padded_head(CAP + 4)[:CAP], CAP) is None

    def test_an_unterminated_buffer_one_byte_over_the_cap_is_too_large(self):
        with pytest.raises(PayloadTooLargeError, match="head"):
            parse_head(padded_head(CAP + 5)[:CAP + 1], CAP)

    def test_a_body_of_exactly_max_request_bytes_is_served(self, capped_server):
        (reply,) = feed(capped_server, padded_post(CAP))
        assert reply.startswith(b"HTTP/1.1 200 OK\r\n")

    def test_a_body_one_byte_over_max_request_bytes_is_a_413(self, capped_server):
        (reply,) = feed(capped_server, padded_post(CAP + 1))
        assert reply.startswith(b"HTTP/1.1 413 Payload Too Large\r\n")


class TestHttp10KeepAlive:
    """An HTTP/1.0 connection stays open only when the request carries
    ``Connection: keep-alive`` (RFC 9112 section 9.3)."""

    @staticmethod
    def post(version: str, *headers: str) -> bytes:
        body = json.dumps(call("eth_chainId", [], 1)).encode()
        return head(f"POST / {version}", f"Content-Length: {len(body)}",
                    *headers) + body

    def test_parse_head_keeps_the_version(self):
        request, _, _ = parse_head(self.post("HTTP/1.0"), CAP)
        assert request.version == "HTTP/1.0"

    def test_without_keep_alive_the_reply_says_close_and_the_socket_closes(
            self, capped_server):
        transport = serve(capped_server, self.post("HTTP/1.0") * 2)
        (reply,) = transport.written
        assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"\r\nConnection: close\r\n" in reply
        assert transport.closing

    def test_with_keep_alive_the_socket_stays_open(self, capped_server):
        request = self.post("HTTP/1.0", "Connection: keep-alive")
        transport = serve(capped_server, request * 2)
        assert len(transport.written) == 2
        assert all(b"\r\nConnection: keep-alive\r\n" in reply
                   for reply in transport.written)
        assert not transport.closing


def test_a_malformed_request_is_answered_400_bad_request(capped_server):
    (reply,) = feed(capped_server, b"NONSENSE\r\n\r\n")
    assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")


@pytest.fixture(scope="module")
def capped_server():
    return make_server(max_request_bytes=CAP)
