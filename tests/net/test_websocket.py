"""RFC 6455 framing, handshake, push plumbing and backpressure."""

import asyncio
import json

import pytest

from repro.errors import NetworkError, ProtocolViolationError
from repro.net import NetConfig, ServerThread, WebSocketClient, build_serve_stack
from repro.net.websocket import (
    OP_BINARY,
    OP_TEXT,
    accept_key,
    encode_frame,
    read_frame,
)


def decode(frame_bytes, *, require_mask=False, max_bytes=1 << 20):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(frame_bytes)
        reader.feed_eof()
        return await read_frame(reader, max_bytes=max_bytes,
                                require_mask=require_mask)
    return asyncio.run(run())


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
        # Subscribe but never read: mining floods the bounded (8-frame)
        # send queue and the server must kick the consumer.
        ws = WebSocketClient("127.0.0.1", server.port)
        try:
            ws.request("eth_subscribe", ["newHeads"])
            with WebSocketClient("127.0.0.1", server.port) as miner:
                for _ in range(6):
                    miner.request("evm_mine", [10])
            deadline = 200
            while not server.stats.slow_consumer_disconnects_total and deadline:
                import time
                time.sleep(0.02)
                deadline -= 1
            assert server.stats.slow_consumer_disconnects_total >= 1
            assert server.stats.dropped_subscriptions_total >= 1
        finally:
            ws.close()
