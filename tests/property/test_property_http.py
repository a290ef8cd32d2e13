"""The HTTP/1.1 door on hostile and on segmented bytes.

``parse_head`` is the one request-head parser in ``repro.net``, and the
server's ``_Connection`` feeds it its buffer as the bytes arrive.
Derandomised, with a fixed example budget:

* on any bytes ``parse_head`` returns ``None``, or a request whose body
  offsets lie within the cap, or raises :class:`ProtocolViolationError`
  (:class:`PayloadTooLargeError` past the cap) -- never another exception;
* pipelined keep-alive requests fed to ``_Connection.data_received`` in
  arbitrary segments write the same replies as the same stream fed whole;
* a stream with one framing or grammar violation gets the replies to the
  requests before it, then one typed 400, 413 or 505, and a close.
"""

import asyncio
import json

import pytest

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import (
    HttpVersionNotSupportedError,
    PayloadTooLargeError,
    ProtocolViolationError,
)
from repro.net.http import parse_head
from repro.net.server import _Connection
from tests.net.test_connection import FakeTransport, call
from tests.net.test_http_server import make_server

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

#: The served connections' byte cap: the smallest ``NetConfig`` allows.
CAP = 1024
ADDRESS = "0x" + "5a" * 20


def post(body, target=b"/", extra=b""):
    return (b"POST %s HTTP/1.1\r\nHost: test\r\n%sContent-Length: %d\r\n\r\n"
            % (target, extra, len(body)) + body)


def rpc(payload):
    return json.dumps(payload).encode()


#: (request bytes, the status it is answered with), every one keep-alive.
KEEP_ALIVE = [
    (post(rpc(call("eth_chainId", [], 1))), 200),
    (post(rpc(call("eth_blockNumber", [], "b")), target=b"/rpc"), 200),
    (post(rpc([call("eth_chainId", [], 2),
               call("eth_getBalance", [ADDRESS, "latest"], 3)])), 200),
    (post(rpc({"jsonrpc": "2.0", "method": "eth_chainId"})), 200),  # empty body
    (post(b'{"jsonrpc": "2.0", "id": 1, "method"'), 200),  # a -32700 envelope
    # A blank line inside a body is JSON whitespace, not a head's end.
    (post(b"\r\n\r\n" + rpc(call("eth_chainId", [], 4)) + b"\r\n\r\n"), 200),
    (post(b"", extra=b"content-length: 0\r\n"), 200),  # duplicates that agree
    (b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n", 200),
    (b"GET /healthz?probe=1 HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 200),
    (b"GET /nowhere HTTP/1.1\r\n\r\n", 404),
    (b"PUT / HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 405),
]
CLOSING = (post(rpc(call("eth_chainId", [], 5)), extra=b"Connection: close\r\n"), 200)

#: (head, status): each one breaks the framing rules.
VIOLATIONS = [
    (b"GARBAGE\r\n\r\n", 400),
    (b"\r\n\r\n", 400),
    (b"POST / HTTP/1.1\r\nNoColonHere\r\n\r\n", 400),
    (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 400),
    (b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n", 400),
    *((b"POST / HTTP/1.1\r\nContent-Length: %s\r\n\r\n" % value, 400)
      for value in (b"", b"-1", b"+5", b"1e3", b"0x10", b"5 5", b"\xb2")),
    (b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (CAP + 1), 413),
    (b"POST / HTTP/1.1\r\nContent-Length: 1234567890123456789012\r\n\r\n", 413),
    (b"POST / HTTP/1.1\r\nX-Pad: " + b"a" * CAP + b"\r\n\r\n", 413),
    (b"POST / HTTP/1.1\r\nX-Pad: " + b"a" * CAP, 413),  # and no blank line yet
    # RFC 9112's head grammar: each of these once framed a body or was served.
    (b"POST / HTTP/1.1\r\nContent-Length : 2\r\n\r\n{}", 400),
    (b"POST / HTTP/1.1\r\nHost: x\r\n Content-Length: 2\r\n\r\n{}", 400),
    (b"POST / HTTP/1.1\r\n: x\r\n\r\n", 400),
    (b"POST  / HTTP/1.1\r\n\r\n", 400),
    (b"POST / FOO/9\r\nContent-Length: 2\r\n\r\n{}", 505),
]

HEADER_LINES = st.one_of(
    st.sampled_from([b"Content-Length: 5", b"content-length:05", b"Content-Length: 5 ",
                     b"Content-Length: -1", b"Content-Length: \xb2", b"Content-Length: ",
                     b"Content-Length: 99999999999999999999", b"Content-Length: 4097",
                     b"Transfer-Encoding: chunked", b"Connection: close", b"NoColon",
                     b":", b" : ", b"X: \x00\xff", b"Content-Length : 5",
                     b" Content-Length: 5", b"\tX: y", b": x",
                     b"Connection: close, TE", b"Connection: keep-alive, TE"]),
    st.binary(max_size=40).filter(lambda line: b"\r\n" not in line),
)


@st.composite
def mangled_heads(draw):
    """A head of drawn header lines and body bytes, kept, cut short, or
    with one byte flipped."""
    data = b"\r\n".join([draw(st.sampled_from([b"POST / HTTP/1.1", b"GET /healthz HTTP/1.0",
                                                b"POST", b"get  /x  y", b"POST  / HTTP/1.1",
                                                b"POST / FOO/9", b"POST / HTTP/1.1 "])),
                          *draw(st.lists(HEADER_LINES, max_size=4))])
    data += b"\r\n\r\n" + draw(st.binary(max_size=64))
    how = draw(st.sampled_from(["keep", "cut", "flip"]))
    offset = draw(st.integers(min_value=0, max_value=len(data) - 1))
    if how == "cut":
        return data[:offset]
    if how == "flip":
        flipped = bytearray(data)
        flipped[offset] ^= draw(st.integers(min_value=1, max_value=255))
        return bytes(flipped)
    return data


def outcome(data, cap, scan_from=0):
    """``parse_head``'s answer, or the refusal's type and message."""
    try:
        return parse_head(data, cap, scan_from)
    except ProtocolViolationError as exc:
        return type(exc), str(exc)


@SETTINGS
@given(data=st.one_of(st.binary(max_size=300), mangled_heads()),
       cap=st.integers(min_value=0, max_value=400),
       searched=st.integers(min_value=0, max_value=300))
# Past Python's int-parsing digit limit: refused from its length, unparsed.
@example(data=b"POST / HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n",
         cap=10_000, searched=0)
def test_any_head_parses_within_the_cap_or_is_a_typed_refusal(data, cap, searched):
    parsed = outcome(data, cap)  # any other exception fails the test
    if parsed is None:
        assert len(data) <= cap
    elif parsed[0] is PayloadTooLargeError:
        assert f"the {cap}-byte cap" in parsed[1]
    elif parsed[0] is HttpVersionNotSupportedError:
        assert data.split(b"\r\n", 1)[0].count(b" ") == 2
    elif parsed[0] is not ProtocolViolationError:
        request, start, end = parsed
        assert data[start - 4:start] == b"\r\n\r\n"
        assert 4 <= start <= cap
        assert 0 <= end - start <= cap
        assert request.body == b"" and request.method == request.method.upper()
    # What the connection does between segments: bytes an earlier call found
    # no head's end in are not searched again, and the answer is the same.
    if outcome(data[:searched], cap) is None:
        assert outcome(data, cap, max(min(searched, len(data)) - 3, 0)) == parsed


@pytest.fixture(scope="module")
def server():
    return make_server(max_request_bytes=CAP)


def feed(server, chunks):
    """The writes, and whether it closed, of one connection fed ``chunks``."""
    async def drive():
        connection = _Connection(server)
        connection.connection_made(transport)
        for chunk in chunks:
            if not transport.closing:  # a closed transport reads no more
                connection.data_received(chunk)
        connection.connection_lost(None)

    transport = FakeTransport()
    asyncio.run(drive())
    return transport.written, transport.closing


def statuses(written):
    return [int(reply[9:12]) for reply in written]


def segments(stream, cuts):
    bounds = sorted({0, len(stream), *(cut % (len(stream) + 1) for cut in cuts)})
    return [stream[start:end] for start, end in zip(bounds, bounds[1:])]


CUTS = st.lists(st.integers(min_value=0), max_size=8)


@SETTINGS
@given(requests=st.lists(st.sampled_from(KEEP_ALIVE), min_size=1, max_size=6),
       closing=st.booleans(), trailer=st.binary(max_size=32), cuts=CUTS)
@example(requests=[KEEP_ALIVE[0], KEEP_ALIVE[0]], closing=False, trailer=b"",
         cuts=[len(KEEP_ALIVE[0][0]) - 10])  # the first body cut, the second whole
def test_pipelined_requests_get_the_same_replies_however_they_are_cut(
        server, requests, closing, trailer, cuts):
    if closing:  # anything after a "Connection: close" request goes unread
        requests = [*requests, CLOSING]
    stream = b"".join(request for request, _status in requests)
    if closing:
        stream += trailer
    whole = feed(server, [stream])
    assert statuses(whole[0]) == [status for _request, status in requests]
    assert whole[1] is closing
    assert feed(server, segments(stream, cuts)) == whole


@SETTINGS
@given(before=st.lists(st.sampled_from(KEEP_ALIVE), max_size=3),
       violation=st.sampled_from(VIOLATIONS),
       after=st.one_of(st.binary(max_size=32),
                       st.sampled_from([request for request, _ in KEEP_ALIVE])),
       cuts=CUTS)
def test_a_mangled_stream_gets_one_typed_refusal_and_a_close(
        server, before, violation, after, cuts):
    head, status = violation
    stream = b"".join(request for request, _status in before) + head + after
    written, closed = feed(server, segments(stream, cuts))
    assert statuses(written) == [expected for _request, expected in before] + [status]
    assert closed
    refusal_head, refusal_body = written[-1].split(b"\r\n\r\n", 1)
    assert b"Connection: close" in refusal_head
    assert set(json.loads(refusal_body)) == {"error"}
    if status == 413:
        assert "cap" in json.loads(refusal_body)["error"]
    assert written == feed(server, [stream])[0]

