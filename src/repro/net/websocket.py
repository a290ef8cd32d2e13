"""RFC 6455 WebSocket framing: server-side codec plus a blocking client.

The server side (handshake accept key, frame encode, and
:func:`decode_frame`, which decodes a frame off the front of a byte buffer)
backs the gateway's ``/ws`` endpoint; the blocking :class:`WebSocketClient`
is the reference consumer -- the subscription tests and the CI end-to-end
smoke drive a live server with it over a plain ``socket``, decoding with the
same :func:`decode_frame`.  Only single-frame (FIN=1) text/binary messages
are supported; fragmentation is rejected with a protocol error, which every
JSON-RPC client this repo ships satisfies.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import socket
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import NetworkError, ProtocolViolationError

#: The magic GUID every WebSocket handshake concatenates to the client key.
ACCEPT_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

#: Socket timeout :meth:`WebSocketClient.next_notification` waits under.
NOTIFICATION_TIMEOUT_SECONDS = 10.0


def accept_key(client_key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client's handshake key."""
    digest = hashlib.sha1((client_key + ACCEPT_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def encode_frame(opcode: int, payload: bytes, mask: bool = False) -> bytes:
    """One FIN=1 frame; clients MUST mask, servers MUST NOT (RFC 6455)."""
    mask_bit = 0x80 if mask else 0x00
    length = len(payload)
    if length < 126:
        header = bytes([0x80 | opcode, mask_bit | length])
    elif length < 1 << 16:
        header = bytes([0x80 | opcode, mask_bit | 126]) + length.to_bytes(2, "big")
    else:
        header = bytes([0x80 | opcode, mask_bit | 127]) + length.to_bytes(8, "big")
    if mask:
        key = os.urandom(4)
        return header + key + _mask(payload, key)
    return header + payload


def _mask(payload: bytes, key: bytes) -> bytes:
    """XOR with the 4-byte key, repeated: masking and unmasking alike.

    The whole payload is XORed as one integer against the key repeated to
    its length, so a 636 kB frame costs a few big-integer passes, not a
    Python step per byte."""
    length = len(payload)
    repeated = (key * (length // 4 + 1))[:length]
    return (int.from_bytes(payload, "big") ^ int.from_bytes(repeated, "big")).to_bytes(
        length, "big")


def decode_frame(buffer: bytes, *, max_bytes: int, require_mask: bool = True
                 ) -> Optional[Tuple[int, bytes, int]]:
    """Decode the frame at the start of ``buffer``.

    Returns ``(opcode, payload, length)``, ``length`` being the frame's bytes
    in ``buffer``, or ``None`` while the frame is incomplete.  Raises
    :class:`ProtocolViolationError` on fragmentation, an unmasked frame when
    ``require_mask``, or a payload past ``max_bytes`` -- each as soon as the
    header shows it, before any of the payload has arrived.
    """
    if len(buffer) < 2:
        return None
    first, second = buffer[0], buffer[1]
    if not first & 0x80:
        raise ProtocolViolationError("fragmented WebSocket frames are not supported")
    masked = bool(second & 0x80)
    if require_mask and not masked:
        raise ProtocolViolationError("client frames must be masked (RFC 6455)")
    length, start = second & 0x7F, 2
    if length >= 126:
        start = 4 if length == 126 else 10
        if len(buffer) < start:
            return None
        length = int.from_bytes(buffer[2:start], "big")
    if length > max_bytes:
        raise ProtocolViolationError(
            f"WebSocket payload of {length} bytes exceeds the {max_bytes}-byte cap")
    end = start + (4 if masked else 0) + length
    if len(buffer) < end:
        return None
    payload = bytes(buffer[end - length:end])
    if masked:
        payload = _mask(payload, bytes(buffer[start:start + 4]))
    return first & 0x0F, payload, end


# -- the blocking client ------------------------------------------------------


class WebSocketClient:
    """A blocking WebSocket JSON-RPC client over a plain socket.

    Responses and subscription notifications interleave on the wire;
    :meth:`request` buffers any notifications it reads while waiting for
    its response id, and :meth:`next_notification` drains that buffer
    before blocking on the socket again -- so callers can mine via one
    request and then collect the push events it caused, in order.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._buffer = bytearray()
        self._next_id = 1
        self._notifications: List[Dict[str, Any]] = []
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        handshake = (
            "GET /ws HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n\r\n"
        )
        self._sock.sendall(handshake.encode("ascii"))
        head = self._read_until(b"\r\n\r\n")
        status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
        if " 101 " not in f"{status_line} ":
            raise NetworkError(f"WebSocket handshake refused: {status_line!r}")
        expected = accept_key(key)
        if f"sec-websocket-accept: {expected.lower()}" not in head.decode("latin-1").lower():
            raise NetworkError("WebSocket handshake returned a bad accept key")

    # -- socket plumbing -----------------------------------------------------

    def _recv(self, eof_message: str) -> None:
        chunk = self._sock.recv(65_536)
        if not chunk:
            raise NetworkError(eof_message)
        self._buffer += chunk

    def _read_until(self, marker: bytes) -> bytes:
        while (index := self._buffer.find(marker)) < 0:
            self._recv("connection closed during WebSocket handshake")
        head = bytes(self._buffer[:index + len(marker)])
        del self._buffer[:index + len(marker)]
        return head

    def _read_frame(self) -> Tuple[int, bytes]:
        """The next frame off the socket: ``(opcode, payload)``."""
        # Server frames need no mask, and a reply (an ipfs_cat, a batch) has
        # no size cap.
        while (frame := decode_frame(self._buffer, max_bytes=1 << 64,
                                     require_mask=False)) is None:
            self._recv("WebSocket connection closed by the server")
        opcode, payload, length = frame
        del self._buffer[:length]
        return opcode, payload

    def _read_message(self) -> Dict[str, Any]:
        """The next data message, transparently answering pings."""
        while True:
            opcode, payload = self._read_frame()
            if opcode == OP_PING:
                self._sock.sendall(encode_frame(OP_PONG, payload, mask=True))
                continue
            if opcode == OP_CLOSE:
                raise NetworkError("server closed the WebSocket connection")
            if opcode in (OP_TEXT, OP_BINARY):
                return json.loads(payload.decode("utf-8"))

    # -- JSON-RPC ------------------------------------------------------------

    def send(self, payload: Dict[str, Any]) -> None:
        """Send one raw JSON message (client frames are masked)."""
        data = json.dumps(payload).encode("utf-8")
        self._sock.sendall(encode_frame(OP_TEXT, data, mask=True))

    def request(self, method: str, params: Optional[list] = None) -> Any:
        """One JSON-RPC call; returns the result, raises on an error envelope."""
        request_id = self._next_id
        self._next_id += 1
        self.send({"jsonrpc": "2.0", "id": request_id,
                   "method": method, "params": params or []})
        while True:
            message = self._read_message()
            if message.get("id") == request_id:
                if "error" in message:
                    error = message["error"]
                    raise NetworkError(
                        f"{method} failed: {error.get('code')} {error.get('message')}")
                return message.get("result")
            if message.get("method") == "eth_subscription":
                self._notifications.append(message["params"])

    def next_notification(self) -> Dict[str, Any]:
        """The next ``eth_subscription`` push: ``{"subscription", "result"}``;
        waits at most :data:`NOTIFICATION_TIMEOUT_SECONDS` on the socket."""
        if self._notifications:
            return self._notifications.pop(0)
        self._sock.settimeout(NOTIFICATION_TIMEOUT_SECONDS)
        while True:
            message = self._read_message()
            if message.get("method") == "eth_subscription":
                return message["params"]

    def drain_notifications(self) -> List[Dict[str, Any]]:
        """Every buffered notification read so far (without blocking)."""
        drained, self._notifications = self._notifications, []
        return drained

    def close(self) -> None:
        """Send a close frame and drop the socket."""
        try:
            self._sock.sendall(encode_frame(OP_CLOSE, b"", mask=True))
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "WebSocketClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
