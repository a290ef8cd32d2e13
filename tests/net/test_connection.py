"""The connection life cycle, black box over real sockets: deadlines,
pipelining, segmentation, write backpressure and the WebSocket hand-off.

What ``tests/net/test_http_server.py`` does not pin.  All but two held on the
coroutine-per-connection server this one replaced (a request stalled *after*
a served one waited out the keep-alive budget there, and the write buffer was
not reachable from a test), so a rewrite of the door cannot drop them silently.
"""

import asyncio
import base64
import json
import os
import socket
import time
from unittest import mock

import pytest

from repro.net import ServerThread
from repro.net.server import _Connection
from repro.net.websocket import OP_TEXT, accept_key, encode_frame

from .test_http_server import make_server

PAYLOAD_BYTES = 318_000  # one quick-preset model update, bench's size


def frame(payload) -> bytes:
    body = json.dumps(payload).encode()
    return (b"POST / HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n"
            % len(body) + body)


def call(method, params, request_id=1):
    return {"jsonrpc": "2.0", "id": request_id, "method": method,
            "params": params}


class Replies:
    """Reads ``Content-Length``-framed replies off one socket, in order."""

    def __init__(self, sock):
        self.sock = sock
        self.buffered = b""

    def next(self):
        while b"\r\n\r\n" not in self.buffered:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("closed before a reply head")
            self.buffered += chunk
        head, rest = self.buffered.split(b"\r\n\r\n", 1)
        length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
        while len(rest) < length:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("closed mid-reply")
            rest += chunk
        self.buffered = rest[length:]
        return int(head[9:12]), rest[:length]


def read_to_eof(sock) -> bytes:
    reply = b""
    while chunk := sock.recv(65536):
        reply += chunk
    return reply


class TestDeadlines:
    @pytest.mark.parametrize("sent", [
        pytest.param(b"", id="nothing"),
        pytest.param(b"POST / HTTP/1.1\r\nHost: te", id="half-a-head"),
        pytest.param(b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"json",
                     id="half-a-body"),
    ])
    def test_a_stalled_first_request_gets_a_counted_408(self, sent):
        server = make_server(read_timeout_seconds=0.2)
        with ServerThread(server):
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as sock:
                sock.sendall(sent)
                reply = read_to_eof(sock)
        assert reply.startswith(b"HTTP/1.1 408 ")
        assert b"Connection: close" in reply and b"read timeout" in reply
        assert server.stats.rejections == {"read_timeout": 1}

    def test_the_body_gets_its_own_budget_after_the_head(self):
        """A head that arrives late in its budget does not eat the body's."""
        server = make_server(read_timeout_seconds=0.4)
        request = frame(call("eth_chainId", []))
        split = request.index(b"\r\n\r\n") + 4
        with ServerThread(server):
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as sock:
                time.sleep(0.25)
                sock.sendall(request[:split])
                time.sleep(0.25)  # 0.5 s since the accept, 0.25 s since the head
                sock.sendall(request[split:])
                status, body = Replies(sock).next()
        assert status == 200 and json.loads(body)["result"] == "0xaa36a7"
        assert server.stats.rejections == {}

    def test_keep_alive_expiry_closes_silently(self):
        server = make_server(read_timeout_seconds=5.0,
                             keepalive_timeout_seconds=0.2)
        with ServerThread(server):
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as sock:
                sock.sendall(frame(call("eth_chainId", [])))
                status, _body = Replies(sock).next()
                began = time.perf_counter()
                rest = read_to_eof(sock)
                waited = time.perf_counter() - began
        assert status == 200 and rest == b""
        assert 0.1 < waited < 3.0
        assert server.stats.rejections == {}

    def test_a_request_stalled_after_a_served_one_is_a_408_not_a_silent_close(self):
        server = make_server(read_timeout_seconds=0.2,
                             keepalive_timeout_seconds=30.0)
        with ServerThread(server):
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as sock:
                sock.sendall(frame(call("eth_chainId", [])) + b"POST / HT")
                replies = Replies(sock)
                assert replies.next()[0] == 200
                status, _body = replies.next()
        assert status == 408
        assert server.stats.rejections == {"read_timeout": 1}


@pytest.fixture()
def deadline_timers():
    """Every timer scheduled for a connection's deadline, by connection
    (``call_later`` goes through ``call_at``, so both are seen)."""
    from asyncio import base_events

    from repro.net.server import _Connection

    scheduled = {}
    call_at = base_events.BaseEventLoop.call_at

    def spy(loop, when, callback, *args, **kwargs):
        handle = call_at(loop, when, callback, *args, **kwargs)
        if getattr(callback, "__func__", None) is _Connection._on_deadline:
            scheduled.setdefault(callback.__self__, []).append(handle)
        return handle

    with mock.patch.object(base_events.BaseEventLoop, "call_at", spy):
        yield scheduled


def closed_with_no_live_timer(thread, server, handles):
    """Wait for the server to drop every connection; then none of ``handles``
    may still be waiting to fire on the loop."""
    deadline = time.time() + 5
    while server.stats.open_connections and time.time() < deadline:
        time.sleep(0.01)
    waiting = list(thread._loop._scheduled)
    return server.stats.open_connections == 0 and not any(
        handle is mine and not handle.cancelled()
        for handle in waiting for mine in handles)


class TestOneTimer:
    """The deadline moves by a store; its one timer moves only earlier."""

    def test_two_hundred_keep_alive_requests_schedule_one_timer(self, deadline_timers):
        server = make_server()
        with ServerThread(server) as thread:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as sock:
                replies = Replies(sock)
                for request_id in range(200):
                    sock.sendall(frame(call("eth_blockNumber", [], request_id)))
                    assert replies.next()[0] == 200
            (handles,) = deadline_timers.values()
            assert len(handles) == 1
            assert closed_with_no_live_timer(thread, server, handles)
        assert server.stats.http_requests == {"rpc": 200}

    def test_a_stalled_head_after_a_long_keep_alive_still_gets_its_408(
            self, deadline_timers):
        """The first timer fires early (the keep-alive moved the deadline
        later) and re-arms; the head's budget then moves it earlier."""
        server = make_server(read_timeout_seconds=0.3,
                             keepalive_timeout_seconds=3.0)
        with ServerThread(server) as thread:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as sock:
                replies = Replies(sock)
                sock.sendall(frame(call("eth_chainId", [])))
                assert replies.next()[0] == 200
                time.sleep(0.6)  # past the connection's first read budget
                sock.sendall(b"POST / HTTP/1.1\r\nHost: te")
                began = time.perf_counter()
                status, body = replies.next()
                waited = time.perf_counter() - began
            (handles,) = deadline_timers.values()
            assert len(handles) == 3  # accept, re-arm, the head's earlier one
            assert closed_with_no_live_timer(thread, server, handles)
        assert status == 408 and b"read timeout" in body
        assert 0.2 < waited < 1.5  # the head's 0.3 s, not the keep-alive's 2.4
        assert server.stats.rejections == {"read_timeout": 1}

    def test_keep_alive_expiry_after_a_re_arm_closes_silently(self, deadline_timers):
        server = make_server(read_timeout_seconds=0.2,
                             keepalive_timeout_seconds=0.6)
        with ServerThread(server) as thread:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as sock:
                replies = Replies(sock)
                sock.sendall(frame(call("eth_chainId", [], 1)))
                assert replies.next()[0] == 200
                time.sleep(0.35)  # the first timer fires early and re-arms
                sock.sendall(frame(call("eth_chainId", [], 2)))
                assert replies.next()[0] == 200
                began = time.perf_counter()
                rest = read_to_eof(sock)
                waited = time.perf_counter() - began
            (handles,) = deadline_timers.values()
            assert len(handles) >= 2
            assert closed_with_no_live_timer(thread, server, handles)
        assert rest == b"" and 0.3 < waited < 3.0
        assert server.stats.rejections == {}


class TestOneHeadParse:
    """A served request leaves an empty buffer: the loop stops there instead
    of parsing a head out of nothing."""

    @pytest.fixture()
    def head_parses(self):
        from repro.net import server as server_module

        calls = []
        parse_head = server_module.parse_head

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return parse_head(*args, **kwargs)

        with mock.patch.object(server_module, "parse_head", counting):
            yield calls

    def test_one_head_parse_per_keep_alive_request(self, head_parses):
        server = make_server()
        with ServerThread(server):
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as sock:
                replies = Replies(sock)
                for request_id in range(20):
                    sock.sendall(frame(call("eth_blockNumber", [], request_id)))
                    assert replies.next()[0] == 200
        assert server.stats.http_requests == {"rpc": 20}
        assert len(head_parses) == 20
        assert 0 not in head_parses

    def test_pipelined_requests_parse_one_head_each(self, head_parses):
        server = make_server()
        with ServerThread(server):
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as sock:
                sock.sendall(b"".join(frame(call("eth_chainId", [], n))
                                      for n in range(3)))
                replies = Replies(sock)
                assert [replies.next()[0] for _ in range(3)] == [200] * 3
        assert 0 not in head_parses


class TestSegmentation:
    @pytest.fixture()
    def server(self):
        server = make_server()
        with ServerThread(server):
            yield server

    def test_three_pipelined_posts_are_answered_in_order(self, server):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            sock.sendall(b"".join(frame(call("eth_chainId", [], request_id))
                                  for request_id in (1, 2, 3)))
            replies = Replies(sock)
            ids = [json.loads(replies.next()[1])["id"] for _ in range(3)]
        assert ids == [1, 2, 3]
        assert server.stats.http_requests == {"rpc": 3}

    def test_a_request_delivered_one_byte_at_a_time(self, server):
        request = frame(call("eth_chainId", [], 7))
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for index in range(len(request)):
                sock.sendall(request[index:index + 1])
                if index % 16 == 0:
                    time.sleep(0.001)  # let the server see short reads
            status, body = Replies(sock).next()
        assert status == 200
        assert json.loads(body) == {"jsonrpc": "2.0", "id": 7, "result": "0xaa36a7"}

    def test_a_model_update_split_across_segments_round_trips(self, server):
        payload = "0x" + os.urandom(PAYLOAD_BYTES).hex()
        request = frame(call("ipfs_add", [payload]))
        assert len(request) > 2 * PAYLOAD_BYTES
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for offset in range(0, len(request), 50_000):
                sock.sendall(request[offset:offset + 50_000])
                time.sleep(0.002)
            replies = Replies(sock)
            status, body = replies.next()
            added = json.loads(body)["result"]
            assert status == 200 and added["size"] == PAYLOAD_BYTES
            sock.sendall(frame(call("ipfs_cat", [added["cid"]])))
            status, body = replies.next()
        assert status == 200 and json.loads(body)["result"] == payload


class TestWriteBackpressure:
    def test_a_client_that_pipelines_and_does_not_read_is_bounded(self):
        """Twenty 636 kB replies to a peer that is not reading: the server
        stops at about one reply past the transport's high-water mark instead
        of queueing 12.7 MB, and delivers all twenty once the peer reads."""
        server = make_server()
        cats = 20
        with ServerThread(server):
            sock = socket.socket()
            # A small receive window, so the kernel cannot swallow the replies.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32_768)
            sock.settimeout(30)
            sock.connect(("127.0.0.1", server.port))
            try:
                replies = Replies(sock)
                payload = "0x" + os.urandom(PAYLOAD_BYTES).hex()
                sock.sendall(frame(call("ipfs_add", [payload])))
                cid = json.loads(replies.next()[1])["result"]["cid"]
                reply_bytes = len(payload) + 200
                sock.sendall(b"".join(frame(call("ipfs_cat", [cid], index))
                                      for index in range(cats)))
                # Wait until the server has stopped making progress.
                served, stable_since = -1, time.time()
                while time.time() - stable_since < 0.3:
                    now = server.stats.http_requests.get("rpc", 0)
                    if now != served:
                        served, stable_since = now, time.time()
                    time.sleep(0.02)
                (connection,) = server._connections
                high_water = connection.transport.get_write_buffer_limits()[1]
                queued = connection.transport.get_write_buffer_size()
                assert served - 1 < cats, "every cat was answered to a peer reading none"
                assert 0 < queued <= reply_bytes + high_water
                for index in range(cats):
                    status, body = replies.next()
                    assert status == 200
                    assert body.startswith(b'{"jsonrpc": "2.0", "id": %d, ' % index)
                    assert len(body) > len(payload)
            finally:
                sock.close()
        assert server.stats.http_requests == {"rpc": cats + 1}
        assert server.stats.rejections == {}


    def test_connection_close_ends_a_pipeline_even_mid_flush(self):
        """``Connection: close`` on a large reply: the requests pipelined
        behind it are not served when the write buffer drains later."""
        server = make_server()
        with ServerThread(server):
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32_768)
            sock.settimeout(30)
            sock.connect(("127.0.0.1", server.port))
            try:
                replies = Replies(sock)
                payload = "0x" + os.urandom(PAYLOAD_BYTES).hex()
                sock.sendall(frame(call("ipfs_add", [payload])))
                cid = json.loads(replies.next()[1])["result"]["cid"]
                body = json.dumps(call("ipfs_cat", [cid], 1)).encode()
                closing = (b"POST / HTTP/1.1\r\nConnection: close\r\n"
                           b"Content-Length: %d\r\n\r\n" % len(body) + body)
                for _ in range(10):  # past what the kernel's buffers swallow
                    sock.sendall(frame(call("ipfs_cat", [cid], 0)))
                sock.sendall(closing + frame(call("ipfs_cat", [cid], 2)))
                time.sleep(0.3)
                ids = []
                try:
                    while True:
                        ids.append(json.loads(replies.next()[1])["id"])
                except ConnectionError:
                    pass
            finally:
                sock.close()
        assert ids == [0] * 10 + [1]
        assert server.stats.http_requests == {"rpc": 12}


class FakeTransport:
    """What a connection writes and closes, and whether a close came while
    ``resume_writing`` -- the transport's own write callback -- ran."""

    def __init__(self):
        self.written = []
        self.closing = self.in_resume = self.closed_in_resume = False

    def write(self, data):
        self.written.append(bytes(data))

    def is_closing(self):
        return self.closing

    def close(self):
        self.closed_in_resume |= self.in_resume
        self.closing = True

    def pause_reading(self):
        pass

    def resume_reading(self):
        pass


class TestCloseAfterResume:
    """asyncio calls ``connection_lost`` twice when a transport with nothing
    left to send is closed inside its own write callback, so the close a
    request answered on ``resume_writing`` makes waits one loop turn."""

    @pytest.mark.parametrize("request_bytes,status", [
        pytest.param(frame(call("eth_chainId", [])).replace(
            b"Host: test", b"Connection: close"), b"200", id="connection-close"),
        pytest.param(b"NOT HTTP\r\n\r\n", b"400", id="malformed-head"),
    ])
    def test_no_close_runs_inside_resume_writing(self, request_bytes, status):
        async def drive(transport):
            connection = _Connection(make_server())
            connection.connection_made(transport)
            connection.pause_writing()
            connection.data_received(request_bytes)
            assert transport.written == []  # held while the peer owes reads
            transport.in_resume = True
            connection.resume_writing()
            transport.in_resume = False
            assert not transport.closed_in_resume
            await asyncio.sleep(0)
            connection.connection_lost(None)

        transport = FakeTransport()
        asyncio.run(drive(transport))
        assert transport.closing and not transport.closed_in_resume
        [reply] = transport.written
        assert reply.startswith(b"HTTP/1.1 " + status)


class TestPipelinedBehindASplitBody:
    def test_a_request_behind_a_body_that_arrived_in_two_segments_is_answered(self):
        """The second segment completes one body and carries a whole second
        request: the second head must be searched for from the start of
        what is left, not from an offset into the bytes already answered."""
        first, second = frame(call("eth_chainId", [], 1)), frame(call("eth_chainId", [], 2))

        async def drive(transport):
            connection = _Connection(make_server())
            connection.connection_made(transport)
            connection.data_received(first[:-10])
            connection.data_received(first[-10:] + second)
            connection.connection_lost(None)

        transport = FakeTransport()
        asyncio.run(drive(transport))
        assert [json.loads(reply.split(b"\r\n\r\n", 1)[1])["id"]
                for reply in transport.written] == [1, 2]
        assert not transport.closing


def ws_handshake():
    key = base64.b64encode(os.urandom(16)).decode("ascii")
    return key, (
        "GET /ws HTTP/1.1\r\nHost: test\r\nUpgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n\r\n"
    ).encode("ascii")


class TestWebSocketHandOff:
    def test_a_first_frame_in_the_handshakes_segment_is_not_lost(self):
        server = make_server()
        key, handshake = ws_handshake()
        message = json.dumps(call("eth_chainId", [], 5)).encode()
        with ServerThread(server):
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as sock:
                sock.sendall(handshake + encode_frame(OP_TEXT, message, mask=True))
                received = b""
                while b"0xaa36a7" not in received:
                    chunk = sock.recv(4096)
                    assert chunk, f"closed after {received!r}"
                    received += chunk
        head, frames = received.split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 101 ")
        assert accept_key(key).encode("ascii") in head
        assert json.loads(frames[2:]) == {"jsonrpc": "2.0", "id": 5,
                                          "result": "0xaa36a7"}
        assert server.stats.ws_messages_total == 1
        assert server.stats.open_connections == 0

    def test_a_protocol_violation_on_the_upgraded_socket_closes_it(self):
        server = make_server()
        _key, handshake = ws_handshake()
        with ServerThread(server):
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as sock:
                sock.sendall(handshake)
                while b"\r\n\r\n" not in (head := sock.recv(4096)):
                    pass
                assert head.startswith(b"HTTP/1.1 101 ")
                sock.sendall(encode_frame(OP_TEXT, b"{}", mask=False))
                assert read_to_eof(sock) == b""
            deadline = time.time() + 5
            while server.stats.open_connections and time.time() < deadline:
                time.sleep(0.01)
        assert server.stats.open_connections == 0
        assert server.stats.open_ws_connections == 0
