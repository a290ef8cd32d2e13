"""RFC 6455 framing, handshake, push plumbing and backpressure."""

import base64
import http.client
import json
import os
import socket
import threading
import time

import pytest

from repro.errors import NetworkError, ProtocolViolationError
from repro.net import NetConfig, ServerThread, WebSocketClient, build_serve_stack, websocket
from repro.net.websocket import (
    OP_BINARY,
    OP_CLOSE,
    OP_TEXT,
    accept_key,
    decode_frame,
    encode_frame,
)


def decode(frame_bytes, *, require_mask=False, max_bytes=1 << 20):
    opcode, payload, length = decode_frame(frame_bytes, max_bytes=max_bytes,
                                           require_mask=require_mask)
    assert length == len(frame_bytes)
    return opcode, payload


class TestFraming:
    def test_accept_key_matches_the_rfc_example(self):
        # The worked example from RFC 6455 section 1.3.
        assert (accept_key("dGhlIHNhbXBsZSBub25jZQ==")
                == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=")

    @pytest.mark.parametrize("size", [0, 1, 125, 126, 65_535, 65_536])
    def test_round_trip_across_length_encodings(self, size):
        payload = bytes(index % 251 for index in range(size))
        opcode, decoded = decode(encode_frame(OP_BINARY, payload))
        assert opcode == OP_BINARY
        assert decoded == payload

    def test_masked_client_frame_round_trips(self):
        frame = encode_frame(OP_TEXT, b"hello", mask=True)
        opcode, decoded = decode(frame, require_mask=True)
        assert (opcode, decoded) == (OP_TEXT, b"hello")

    def test_unmasked_client_frame_is_a_protocol_violation(self):
        frame = encode_frame(OP_TEXT, b"hello", mask=False)
        with pytest.raises(ProtocolViolationError):
            decode(frame, require_mask=True)

    def test_fragmented_frames_are_rejected(self):
        frame = bytearray(encode_frame(OP_TEXT, b"hello"))
        frame[0] &= 0x7F  # clear FIN
        with pytest.raises(ProtocolViolationError):
            decode(bytes(frame))

    def test_oversized_payload_is_rejected_before_the_read(self):
        frame = encode_frame(OP_BINARY, b"x" * 600)
        with pytest.raises(ProtocolViolationError):
            decode(frame, max_bytes=512)


@pytest.fixture()
def server():
    stack = build_serve_stack(NetConfig(port=0, block_interval_seconds=0,
                                        send_queue_frames=8))
    with ServerThread(stack):
        yield stack


class TestHandshakeAndSession:
    def test_plain_get_on_ws_is_upgrade_required(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("GET", "/ws")
            response = conn.getresponse()
            assert response.status == 426
            assert response.getheader("Upgrade") == "websocket"
        finally:
            conn.close()

    def test_rpc_works_over_websocket(self, server):
        with WebSocketClient("127.0.0.1", server.port) as ws:
            assert ws.request("eth_chainId") == "0xaa36a7"
            assert ws.request("eth_blockNumber") == "0x0"

    def test_ping_is_answered_with_pong(self, server):
        with WebSocketClient("127.0.0.1", server.port) as ws:
            ws._sock.sendall(encode_frame(0x9, b"marco", mask=True))
            opcode, payload = ws._read_frame()
            assert (opcode, payload) == (0xA, b"marco")

    def test_bad_json_gets_a_parse_error_envelope(self, server):
        with WebSocketClient("127.0.0.1", server.port) as ws:
            ws._sock.sendall(encode_frame(OP_TEXT, b"{nope", mask=True))
            message = ws._read_message()
            assert message["error"]["code"] == -32700

    def test_next_notification_times_out_when_nothing_is_pushed(self, server, monkeypatch):
        monkeypatch.setattr(websocket, "NOTIFICATION_TIMEOUT_SECONDS", 0.2)
        with WebSocketClient("127.0.0.1", server.port) as ws:
            with pytest.raises(socket.timeout):
                ws.next_notification()

    def test_unsubscribe_of_unknown_id_returns_false(self, server):
        with WebSocketClient("127.0.0.1", server.port) as ws:
            assert ws.request("eth_unsubscribe", ["0xdead"]) is False

    def test_subscribe_with_unknown_kind_errors(self, server):
        with WebSocketClient("127.0.0.1", server.port) as ws:
            with pytest.raises(NetworkError, match="unknown subscription"):
                ws.request("eth_subscribe", ["newSideChains"])

    def test_logs_bounds_take_tags_and_name_a_malformed_one(self, server):
        with WebSocketClient("127.0.0.1", server.port) as ws:
            assert ws.request("eth_subscribe", [
                "logs", {"from_block": "0x0", "to_block": "latest"}]).startswith("0x")
            with pytest.raises(NetworkError, match="unknown to_block tag '0xzz'"):
                ws.request("eth_subscribe", ["logs", {"to_block": "0xzz"}])

    def test_disconnect_drops_the_sessions_subscriptions(self, server):
        with WebSocketClient("127.0.0.1", server.port) as ws:
            ws.request("eth_subscribe", ["newHeads"])
            assert server.subscription_kinds() == {"newHeads": 1}
        deadline = 100
        while server.subscription_kinds() and deadline:
            import time
            time.sleep(0.02)
            deadline -= 1
        assert server.subscription_kinds() == {}

    def test_slow_consumer_is_disconnected_and_counted(self, server):
        # Subscribe, then never read, on a socket with a small receive
        # buffer: once the kernel's buffers and the transport's are full, the
        # pushes wait in the bounded (8-frame) backlog and the server must
        # kick the consumer.
        with silent_subscriber(server):
            with WebSocketClient("127.0.0.1", server.port) as miner:
                for _ in range(200):
                    if server.stats.slow_consumer_disconnects_total:
                        break
                    miner.request("evm_mine", [100])
            assert server.stats.slow_consumer_disconnects_total == 1
            assert server.stats.dropped_subscriptions_total == 1
            assert server.subscription_kinds() == {}

    def test_a_reading_subscriber_gets_every_push_of_one_burst(self, server):
        # 50 heads from one evm_mine, 8 frames of backlog: a consumer that
        # reads is never kicked, however many frames one loop turn makes.
        with WebSocketClient("127.0.0.1", server.port) as ws:
            sub = ws.request("eth_subscribe", ["newHeads"])
            ws.request("evm_mine", [50])
            pushes = [ws.next_notification() for _ in range(50)]
        assert {push["subscription"] for push in pushes} == {sub}
        assert [push["result"]["header"]["number"] for push in pushes] == \
            list(range(1, 51))
        assert server.stats.slow_consumer_disconnects_total == 0

    def test_invalid_utf8_is_a_parse_error_and_the_session_lives_on(self, server):
        with WebSocketClient("127.0.0.1", server.port) as ws:
            ws._sock.sendall(encode_frame(OP_TEXT, b'{"id": "\xff"}', mask=True))
            opcode, reply = ws._read_frame()
            assert opcode == OP_TEXT
            assert reply == server.gateway.handle_raw(b'{"id": "\xff"}')
            assert json.loads(reply)["error"]["code"] == -32700
            assert ws.request("eth_chainId") == "0xaa36a7"

    def test_a_close_frame_is_echoed_before_the_socket_closes(self, server):
        with WebSocketClient("127.0.0.1", server.port) as ws:
            ws._sock.sendall(encode_frame(OP_CLOSE, b"\x03\xe8", mask=True))
            assert ws._read_frame() == (OP_CLOSE, b"\x03\xe8")  # 1000
            assert ws._sock.recv(4096) == b""

    def test_shutdown_sends_going_away_and_closes_at_once(self):
        lines = []
        server = build_serve_stack(NetConfig(port=0, block_interval_seconds=0),
                                   logger=lines.append)
        thread = ServerThread(server)
        thread.start()
        with WebSocketClient("127.0.0.1", server.port) as ws:
            ws.request("eth_subscribe", ["newHeads"])
            thread.stop()
            assert ws._read_frame() == (OP_CLOSE, b"\x03\xe9")  # 1001
            assert ws._sock.recv(4096) == b""
        assert server.subscription_kinds() == {}
        assert not any("force-closed" in line for line in lines)
        assert lines[-1] == "graceful shutdown complete"

    def test_a_paused_consumer_gets_its_backlog_then_the_going_away_frame(self):
        # A consumer that stops reading until frames wait in the backlog,
        # then reads while the server drains: every head arrives in order,
        # the close frame last, and the drain needs no force-close.
        lines = []
        server = build_serve_stack(NetConfig(port=0, block_interval_seconds=0),
                                   logger=lines.append)
        thread = ServerThread(server)
        thread.start()
        try:
            with silent_subscriber(server) as sock:
                with WebSocketClient("127.0.0.1", server.port) as miner:
                    for _ in range(2000):
                        if server.send_queue_depth():
                            break
                        miner.request("evm_mine", [10])
                assert 0 < server.send_queue_depth() < server.config.send_queue_frames
                tip = server.node.block_number
                stopper = threading.Thread(target=thread.stop)
                stopper.start()
                received = bytearray()
                while chunk := sock.recv(65_536):
                    received += chunk
                stopper.join(timeout=30)
                assert not stopper.is_alive()
        finally:
            thread.stop()
        del received[:received.index(b"\r\n\r\n") + 4]
        frames = []
        while received:
            opcode, payload, length = decode_frame(received, max_bytes=1 << 20,
                                                   require_mask=False)
            frames.append((opcode, payload))
            del received[:length]
        assert frames[-1] == (OP_CLOSE, b"\x03\xe9")
        assert json.loads(frames[0][1]) == {"jsonrpc": "2.0", "id": 1, "result": "0x1"}
        heads = [json.loads(payload)["params"]["result"]["header"]["number"]
                 for _, payload in frames[1:-1]]
        assert heads == list(range(1, tip + 1))
        assert server.stats.slow_consumer_disconnects_total == 0
        assert not any("force-closed" in line for line in lines)


def ws_handshake():
    key = base64.b64encode(os.urandom(16)).decode("ascii")
    return (
        "GET /ws HTTP/1.1\r\nHost: test\r\nUpgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n\r\n"
    ).encode("ascii")


def silent_subscriber(server):
    """A raw socket with a 4 KiB receive buffer, subscribed to newHeads,
    that has read nothing yet."""
    sock = socket.socket()
    # Set before connect: the receive buffer sizes the advertised window.
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(10)
    sock.connect(("127.0.0.1", server.port))
    sock.sendall(ws_handshake() + encode_frame(
        OP_TEXT, json.dumps(call("eth_subscribe", ["newHeads"])).encode(), mask=True))
    deadline = time.time() + 10
    while not server.subscription_kinds() and time.time() < deadline:
        time.sleep(0.01)
    assert server.subscription_kinds() == {"newHeads": 1}
    return sock


def post(port, body):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("POST", "/", body=body)
        response = connection.getresponse()
        assert response.status == 200
        return response.read()
    finally:
        connection.close()


def call(method, params, request_id=1):
    return {"jsonrpc": "2.0", "id": request_id, "method": method, "params": params}


def ws_reply(ws, payload):
    """Send one raw JSON text frame and return the reply frame's bytes."""
    ws._sock.sendall(encode_frame(OP_TEXT, json.dumps(payload).encode(), mask=True))
    opcode, reply = ws._read_frame()
    assert opcode == OP_TEXT
    return reply


class TestGatewayDispatch:
    """A WebSocket message is dispatched exactly as a POST body is."""

    def test_max_batch_applies_over_websocket(self):
        server = build_serve_stack(NetConfig(port=0, block_interval_seconds=0,
                                             max_batch=5))
        batch = [call("eth_chainId", [], index) for index in range(50)]
        with ServerThread(server):
            with WebSocketClient("127.0.0.1", server.port) as ws:
                reply = ws_reply(ws, batch)
            assert server.stats.rejections == {"batch_too_large": 1}
            assert reply == post(server.port, json.dumps(batch).encode())
        assert json.loads(reply) == {
            "jsonrpc": "2.0", "id": None,
            "error": {"code": -32600,
                      "message": "batch of 50 exceeds the 5-request cap"}}

    def test_subscribe_inside_a_batch_installs_a_subscription(self, server):
        with WebSocketClient("127.0.0.1", server.port) as ws:
            [reply] = json.loads(ws_reply(ws, [call("eth_subscribe", ["newHeads"])]))
            assert reply == {"jsonrpc": "2.0", "id": 1, "result": "0x1"}
            assert server.subscription_kinds() == {"newHeads": 1}
            ws.request("evm_mine", [1])
            assert ws.next_notification()["subscription"] == "0x1"

    def test_a_bool_id_on_subscribe_is_an_invalid_request(self, server):
        with WebSocketClient("127.0.0.1", server.port) as ws:
            reply = json.loads(ws_reply(ws, {**call("eth_subscribe", ["newHeads"]),
                                             "id": True}))
            assert reply["id"] is None
            assert reply["error"]["code"] == -32600
            assert server.subscription_kinds() == {}

    def test_websocket_subscribe_is_counted_per_method(self, server):
        with WebSocketClient("127.0.0.1", server.port) as ws:
            ws.request("eth_subscribe", ["newHeads"])
            ws.request("eth_unsubscribe", ["0x1"])
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            connection.request("GET", "/metrics")
            text = connection.getresponse().read().decode()
        finally:
            connection.close()
        assert 'repro_rpc_requests_total{method="eth_subscribe"} 1' in text
        assert 'repro_rpc_requests_total{method="eth_unsubscribe"} 1' in text
