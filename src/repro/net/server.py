"""The asyncio HTTP/WebSocket door in front of the JSON-RPC gateway.

:class:`RpcHttpServer` serves four routes off one listening socket:

* ``POST /`` (or ``/rpc``) -- single or batch JSON-RPC, the gateway's
  ``handle_raw`` verbatim;
* ``GET /ws`` -- WebSocket upgrade; each text frame goes through
  ``handle_raw`` like a POST body, and ``eth_subscribe`` /
  ``eth_unsubscribe`` push (newHeads, newPendingTransactions, logs) down
  the same socket;
* ``GET /metrics`` -- the unified registry in Prometheus text format;
* ``GET /healthz`` -- readiness (status + chain height).

Operational hardening is explicit config, not hope: a global connection
limit (503 past it), request-head/body/batch size caps, read timeouts on
in-flight requests, a bounded backlog per WebSocket whose overflow
disconnects the slow consumer and drops its subscriptions, and a graceful
drain on shutdown (stop accepting, close WebSockets with a going-away
frame, bounded wait for in-flight requests, flush storage).

Both protocols run on one :class:`asyncio.Protocol` per socket: bytes land
in one buffer, and HTTP requests and WebSocket frames alike are decoded off
it and answered in the loop turn they arrive, with no task per connection.

Everything chain-touching runs on the single event-loop thread, so the
simulated stack needs no locking of its own; :class:`ServerThread` hosts
that loop for tests and the self-hosted HTTP load driver.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
from dataclasses import asdict, dataclass, field
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Set, Tuple

from repro.errors import (
    HttpVersionNotSupportedError,
    NetworkError,
    PayloadTooLargeError,
    ProtocolViolationError,
)
from repro.net.http import CONTENT_TYPES, HttpRequest, format_response, parse_head
from repro.net.subscriptions import SubscriptionManager
from repro.net.websocket import (
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    accept_key,
    decode_frame,
    encode_frame,
)
from repro.obs.adapters import collect_net_server
from repro.rpc.protocol import INVALID_REQUEST, JsonRpcError

_JSON, _PROMETHEUS = CONTENT_TYPES
#: The paths ``POST`` JSON-RPC is served on, and every path served at all.
_RPC_PATHS = ("/", "/rpc")
_ROUTES = (*_RPC_PATHS, "/metrics", "/healthz", "/ws")


@dataclass(frozen=True)
class NetConfig:
    """Declarative description of one HTTP/WebSocket server."""

    host: str = "127.0.0.1"
    port: int = 8545
    """TCP port to bind; ``0`` binds an ephemeral port (tests)."""

    max_connections: int = 64
    """Global concurrent-socket cap; excess connects get a 503 and close."""

    max_request_bytes: int = 1_048_576
    """Cap on an HTTP head, an HTTP body and a WebSocket payload alike."""

    max_batch: int = 100
    """Envelopes per batch, POSTed or sent as one WebSocket message; larger
    batches get an invalid-request error."""

    read_timeout_seconds: float = 10.0
    """Budget for reading one in-flight request (the slow-loris bound)."""

    keepalive_timeout_seconds: float = 300.0
    """Idle budget between requests on a kept-alive HTTP connection."""

    send_queue_frames: int = 256
    """Frames a WebSocket may have waiting while its peer does not read (the
    transport has paused writing); one more disconnects the consumer."""

    block_interval_seconds: float = 0.5
    """Producer cadence: mine pending transactions every interval
    (wall-clock).  ``0`` disables the producer -- clients mine explicitly
    via ``evm_mine``."""

    drain_timeout_seconds: float = 5.0
    """Graceful-shutdown budget for in-flight requests before force-close."""

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise NetworkError(f"port must be 0-65535, got {self.port}")
        # ``nan`` passes every ``<= 0`` test below; ``inf`` is no budget.
        for name in ("read_timeout_seconds", "keepalive_timeout_seconds",
                     "block_interval_seconds", "drain_timeout_seconds"):
            if not math.isfinite(getattr(self, name)):
                raise NetworkError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.max_connections <= 0:
            raise NetworkError(
                f"max_connections must be positive, got {self.max_connections}")
        if self.max_request_bytes < 1024:
            raise NetworkError(
                f"max_request_bytes must be at least 1024, got {self.max_request_bytes}")
        if self.max_batch <= 0:
            raise NetworkError(f"max_batch must be positive, got {self.max_batch}")
        if self.read_timeout_seconds <= 0:
            raise NetworkError(
                f"read_timeout_seconds must be positive, got {self.read_timeout_seconds}")
        if self.send_queue_frames <= 0:
            raise NetworkError(
                f"send_queue_frames must be positive, got {self.send_queue_frames}")
        if self.block_interval_seconds < 0:
            raise NetworkError(
                f"block_interval_seconds must be non-negative, "
                f"got {self.block_interval_seconds}")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class ServerStats:
    """Plain counters the ``repro_net_*`` metric adapter samples."""

    connections_total: int = 0
    open_connections: int = 0
    ws_connections_total: int = 0
    open_ws_connections: int = 0
    http_requests: Dict[str, int] = field(default_factory=dict, init=False)
    ws_messages_total: int = 0
    notifications_total: int = 0
    rejections: Dict[str, int] = field(default_factory=dict, init=False)
    slow_consumer_disconnects_total: int = 0
    dropped_subscriptions_total: int = 0

    def count_request(self, route: str) -> None:
        self.http_requests[route] = self.http_requests.get(route, 0) + 1

    def count_rejection(self, reason: str) -> None:
        self.rejections[reason] = self.rejections.get(reason, 0) + 1

    def to_dict(self) -> Dict[str, Any]:
        return {**asdict(self),
                "http_requests": dict(sorted(self.http_requests.items())),
                "rejections": dict(sorted(self.rejections.items()))}


class _WsSession:
    """One upgraded WebSocket connection: its subscriptions and write backlog.

    Frames go straight to the transport.  Only while the transport has paused
    writing -- the peer is not reading -- do they wait in ``backlog``, at most
    ``send_queue_frames`` of them; one more kicks the consumer.
    """

    def __init__(self, connection: "_Connection") -> None:
        self.server = connection.server
        self.connection = connection
        self.transport = connection.transport
        self.subs = SubscriptionManager(self.server.node)
        self.backlog: Deque[bytes] = deque()
        self.closed = False

    def send(self, frame: bytes) -> bool:
        """Write one frame, or hold it while writing is paused; False kicks
        the slow consumer."""
        if self.closed:
            return False
        if not self.backlog and not self.connection.write_paused:
            self.transport.write(frame)
        elif len(self.backlog) < self.server.config.send_queue_frames:
            self.backlog.append(frame)
        else:
            self.kick("slow_consumer")
            return False
        return True

    def flush(self) -> None:
        """Write the backlog until the transport pauses again; once a close
        frame has gone, close the transport."""
        backlog = self.backlog
        while backlog and not self.connection.write_paused:
            self.transport.write(backlog.popleft())
        if self.closed and not backlog:
            # Next turn: a close inside the transport's own write callback
            # (``resume_writing``) makes asyncio call ``connection_lost`` twice.
            self.connection.loop.call_soon(self.transport.close)

    def kick(self, reason: str) -> None:
        """Disconnect a misbehaving/slow consumer and drop its subscriptions."""
        if self.closed:
            return
        self.closed = True
        stats = self.server.stats
        stats.slow_consumer_disconnects_total += 1
        stats.dropped_subscriptions_total += self.subs.clear()
        stats.count_rejection(reason)
        # Abort rather than drain: the consumer is not reading, so a close
        # frame would never flush.
        self.transport.abort()

    def close(self, payload: bytes) -> None:
        """Send a close frame after the backlog, then close the transport."""
        if self.closed:
            return
        if not self.send(encode_frame(OP_CLOSE, payload)):
            return  # the backlog was full: kicked
        self.closed = True
        self.subs.clear()
        self.flush()


class _Connection(asyncio.Protocol):
    """One accepted socket: a message answered in the loop turn its bytes
    arrive.

    One buffer, one timer, no task: every complete request in the buffer is
    parsed, dispatched and written back synchronously.  ``deadline`` is the
    current one, a loop time -- ``read_timeout_seconds`` for a head, again
    for its body (408), ``keepalive_timeout_seconds`` between requests
    (silent close).  Moving it is a store; the timer moves only to an
    earlier deadline, and a timer that fires before ``deadline`` re-arms
    there.  A peer that stops reading pauses processing and the read side
    until the write buffer drains.  A ``GET /ws`` upgrade keeps the buffer
    and the transport: ``ws`` is set, the deadline goes, and frames are
    decoded off the buffer as they arrive.
    """

    def __init__(self, server: "RpcHttpServer") -> None:
        self.server = server
        self.loop = asyncio.get_running_loop()
        self.transport: Any = None
        self.buffer = bytearray()
        #: A parsed head waiting for its body: (request, body start, body end).
        self.pending: Optional[Tuple[HttpRequest, int, int]] = None
        self.idle = False  # between requests: the deadline is the keep-alive one
        self.write_paused = False
        self.deadline = 0.0  # meaningful while ``timer`` is set
        self.timer: Optional[asyncio.TimerHandle] = None
        #: The WebSocket session, once ``GET /ws`` has upgraded the socket.
        self.ws: Optional[_WsSession] = None

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        server = self.server
        server.stats.connections_total += 1
        if (server.stats.open_connections >= server.config.max_connections
                or server._draining):
            reason = "draining" if server._draining else "connection_limit"
            server.stats.count_rejection(reason)
            self._refuse(503, f"server {reason.replace('_', ' ')}")
            return
        server.stats.open_connections += 1
        server._connections.add(self)
        self._arm(server.config.read_timeout_seconds)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._arm(None)
        server = self.server
        if self in server._connections:
            server._connections.discard(self)
            server.stats.open_connections -= 1
        session = self.ws
        if session is not None:
            server._ws_sessions.discard(session)
            server.stats.open_ws_connections -= 1
            session.closed = True
            session.subs.clear()

    def data_received(self, data: bytes) -> None:
        if self.ws is not None:
            if not self.ws.closed:  # a closed session reads nothing more
                self.buffer += data
                self._read_frames()
            return
        scan_from = max(len(self.buffer) - 3, 0)
        self.buffer += data
        if self.pending is None or len(self.buffer) >= self.pending[2]:
            self._process(scan_from)

    def eof_received(self) -> Optional[bool]:
        if self.buffer and self.ws is None:
            self._reject(ProtocolViolationError(
                "connection closed mid-body" if self.pending is not None
                else "truncated HTTP request head"))
        return None  # the transport flushes what is queued, then closes

    def pause_writing(self) -> None:
        self.write_paused = True
        if self.ws is None:
            self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.write_paused = False
        if self.transport.is_closing():
            return
        if self.ws is not None:
            self.ws.flush()
        else:
            self.transport.resume_reading()
            # Next turn, as in ``_WsSession.flush``: a request answered here
            # may close the transport, and a close inside its own write
            # callback makes asyncio call ``connection_lost`` twice.
            self.loop.call_soon(self._resume_processing)

    def _resume_processing(self) -> None:
        if not self.transport.is_closing():
            self._process()

    def _process(self, scan_from: int = 0) -> None:
        """Answer every complete request in the buffer, then set the deadline."""
        server, config, buffer = self.server, self.server.config, self.buffer
        transport = self.transport
        while not self.write_paused and not transport.is_closing():
            pending = self.pending
            if pending is None:
                try:
                    pending = parse_head(buffer, config.max_request_bytes, scan_from)
                except ProtocolViolationError as exc:
                    self._reject(exc)
                    return
                if pending is None:
                    break
            request, start, total = pending
            if len(buffer) < total:
                if self.pending is None:  # the head is in: the body's budget starts
                    self.pending = pending
                    self.idle = False
                    self._arm(config.read_timeout_seconds)
                return
            self.pending = None
            request.body = buffer[start:total]  # the body's one copy
            del buffer[:total]
            scan_from = 0  # it counted bytes of the request just removed
            if request.method == "GET" and request.path == "/ws":
                self._upgrade(request)
                return
            keep_alive = request.wants_keep_alive() and not server._draining
            transport.write(server._respond_http(request, keep_alive))
            if not keep_alive:
                transport.close()
                return
            self.idle = True
            if not buffer:
                break  # nothing more arrived: no head to parse
        if self.write_paused:
            self._arm(None)  # the peer owes reads, not bytes: no deadline
        elif not buffer:
            self._arm(config.keepalive_timeout_seconds)
        elif self.idle:  # the first bytes of the next request
            self.idle = False
            self._arm(config.read_timeout_seconds)

    def _upgrade(self, request: HttpRequest) -> None:
        """Answer ``GET /ws``: a 426 unless it asks to upgrade, else the 101,
        and the socket speaks WebSocket from the next byte of the buffer."""
        server, transport = self.server, self.transport
        key = request.headers.get("sec-websocket-key")
        if not request.is_websocket_upgrade() or not key:
            server.stats.count_rejection("bad_upgrade")
            transport.write(format_response(
                426, b'{"error": "this endpoint speaks WebSocket"}',
                keep_alive=False, extra_headers=(("Upgrade", "websocket"),)))
            transport.close()
            return
        self._arm(None)
        transport.write(
            b"HTTP/1.1 101 Switching Protocols\r\n"
            b"Upgrade: websocket\r\n"
            b"Connection: Upgrade\r\n"
            b"Sec-WebSocket-Accept: " + accept_key(key).encode("ascii")
            + b"\r\n\r\n")
        server.stats.ws_connections_total += 1
        server.stats.open_ws_connections += 1
        self.ws = _WsSession(self)
        server._ws_sessions.add(self.ws)
        # Keep the transport's own buffer small so a slow consumer shows up
        # at the *bounded* backlog (where it is counted and kicked) instead
        # of hiding inside a multi-megabyte write buffer.
        transport.set_write_buffer_limits(high=16_384)
        self._read_frames()  # frames that shared a segment with the handshake

    def _read_frames(self) -> None:
        """Answer every complete frame in the buffer, in order."""
        session, buffer = self.ws, self.buffer
        max_bytes = self.server.config.max_request_bytes
        while not session.closed:
            try:
                frame = decode_frame(buffer, max_bytes=max_bytes)
            except ProtocolViolationError:
                session.closed = True
                self.transport.close()
                return
            if frame is None:
                return
            opcode, payload, length = frame
            del buffer[:length]
            if opcode == OP_TEXT:
                self.server._dispatch_ws(session, payload)
            elif opcode == OP_PING:
                session.send(encode_frame(OP_PONG, payload))
            elif opcode == OP_CLOSE:
                session.close(payload[:2])

    def _arm(self, seconds: Optional[float]) -> None:
        """Set the deadline ``seconds`` from now (``None``: no deadline)."""
        timer = self.timer
        if seconds is None:
            if timer is not None:
                timer.cancel()
                self.timer = None
            return
        self.deadline = deadline = self.loop.time() + seconds
        if timer is None or deadline < timer.when():
            if timer is not None:
                timer.cancel()
            self.timer = self.loop.call_at(deadline, self._on_deadline)

    def _on_deadline(self) -> None:
        if self.deadline > self.timer.when():  # moved on since it was set
            self.timer = self.loop.call_at(self.deadline, self._on_deadline)
            return
        self.timer = None
        if self.idle or self.transport.is_closing():
            self.transport.close()  # keep-alive expiry: just close
            return
        self.server.stats.count_rejection("read_timeout")
        self._refuse(408, "read timeout")

    def _reject(self, exc: ProtocolViolationError) -> None:
        """Hostile or broken bytes: a typed, counted 400 (413 when too large,
        505 for an HTTP version other than 1.0 and 1.1)."""
        too_large = isinstance(exc, PayloadTooLargeError)
        self.server.stats.count_rejection("protocol")
        if too_large:
            self.server.stats.count_rejection("too_large")
        status = 505 if isinstance(exc, HttpVersionNotSupportedError) else 400
        self._refuse(413 if too_large else status, str(exc))

    def _refuse(self, status: int, message: str) -> None:
        self.transport.write(format_response(
            status, json.dumps({"error": message}).encode(), keep_alive=False))
        self.transport.close()


class RpcHttpServer:
    """Serves one node's stack: its JSON-RPC gateway over HTTP and WebSocket."""

    def __init__(
        self,
        stack: Any,
        config: Optional[NetConfig] = None,
        *,
        logger: Optional[Callable[[str], None]] = None,
    ) -> None:
        # The reply cache's one-int stamp is one chain's version; it cannot
        # cover a cluster's round-robin replica reads.
        if stack.cluster is not None:
            raise NetworkError("the server serves one node, not a cluster")
        #: The ``repro.system.stack.Stack`` being served: its node drives
        #: production, its registry is ``/metrics``, shutdown closes it.
        self.stack = stack
        self.gateway = stack.gateway
        self.node = stack.node
        self.config = config or NetConfig()
        self.stats = ServerStats()
        self._log = logger or (lambda message: None)
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[_Connection] = set()
        self._ws_sessions: Set[_WsSession] = set()
        self._block_tick_task: Optional[asyncio.Task] = None
        self._draining = False
        #: The gateway's batch check, bound once for every request.
        self._admit = self._admit_batch
        self.port = self.config.port
        stack.registry.register_collector(
            lambda reg: collect_net_server(reg, self))

    # -- introspection -------------------------------------------------------

    def subscription_kinds(self) -> Dict[str, int]:
        """Live subscriptions per kind, across every WebSocket session."""
        counts: Dict[str, int] = {}
        for session in self._ws_sessions:
            for kind, count in session.subs.kinds().items():
                counts[kind] = counts.get(kind, 0) + count
        return counts

    def send_queue_depth(self) -> int:
        """The deepest per-socket send queue right now (backpressure gauge)."""
        return max((len(session.backlog) for session in self._ws_sessions),
                   default=0)

    def status(self) -> Dict[str, Any]:
        """The ``net_serverStatus`` document."""
        return {
            "chain_height": self.node.block_number,
            "config": self.config.to_dict(),
            "draining": self._draining,
            "stats": self.stats.to_dict(),
            "subscriptions": dict(sorted(self.subscription_kinds().items())),
        }

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start the block producer."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.block_interval_seconds > 0:
            self._block_tick_task = asyncio.ensure_future(self._block_tick_loop())
        self._log(f"listening on http://{self.config.host}:{self.port} "
                  f"(POST /, WebSocket /ws, GET /metrics, GET /healthz)")

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, flush, close."""
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._block_tick_task is not None:
            self._block_tick_task.cancel()
            try:
                await self._block_tick_task
            except asyncio.CancelledError:
                pass
        for session in list(self._ws_sessions):
            session.close(b"\x03\xe9")  # 1001: going away
        for connection in list(self._connections):
            if connection.ws is None and not connection.buffer:
                connection.transport.close()  # holds no part of a request
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout_seconds
        while self._connections and loop.time() < deadline:
            await asyncio.sleep(0.005)
        if self._connections:
            self._log(f"force-closed {len(self._connections)} connection(s) "
                      f"after the {self.config.drain_timeout_seconds}s drain budget")
            for connection in list(self._connections):
                connection.transport.abort()
        if self._server is not None:
            await self._server.wait_closed()
        # Nothing mines or submits any more: a snapshot at the head compacts
        # the WAL (pending transactions stay for mempool recovery), so a
        # restart replays nothing.  Without a store this is a no-op.
        chain = self.node.chain
        try:
            chain.store.snapshot(chain)
        finally:
            self.stack.close()
        self._log("graceful shutdown complete")

    async def run(self, stop: asyncio.Event) -> None:
        """Start, serve until ``stop`` is set, then drain."""
        await self.start()
        await stop.wait()
        await self.shutdown()

    # -- block production ----------------------------------------------------

    async def _block_tick_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.block_interval_seconds)
            try:
                if self.node.produce_pending(advance_clock=True):
                    self.pump_subscriptions()
            except Exception as exc:  # noqa: BLE001 - production must not kill serving
                self._log(f"producer error: {exc}")

    def pump_subscriptions(self) -> None:
        """Push every new chain event to its subscribed WebSocket sessions."""
        for session in list(self._ws_sessions):
            if session.closed or not len(session.subs):
                continue
            for sub_id, payload in session.subs.pump():
                message = json.dumps({
                    "jsonrpc": "2.0",
                    "method": "eth_subscription",
                    "params": {"subscription": sub_id, "result": payload},
                }, default=str)
                if not session.send(encode_frame(OP_TEXT, message.encode("utf-8"))):
                    break
                self.stats.notifications_total += 1

    # -- connection handling -------------------------------------------------

    def _respond_http(self, request: HttpRequest, keep_alive: bool) -> bytes:
        method, path = request.method, request.path
        if method == "POST" and path in _RPC_PATHS:
            self.stats.count_request("rpc")
            reply = self.gateway.handle_raw(request.body, self._admit)
            if self._ws_sessions:
                self.pump_subscriptions()
            # A notification-only payload has no reply; HTTP still needs a body.
            return format_response(200, reply, _JSON, keep_alive)
        if method == "GET" and path == "/metrics":
            self.stats.count_request("metrics")
            text = self.stack.registry.render_prometheus().encode("utf-8")
            return format_response(200, text, _PROMETHEUS, keep_alive)
        if method == "GET" and path == "/healthz":
            self.stats.count_request("healthz")
            body = json.dumps({
                "status": "draining" if self._draining else "ok",
                "height": self.node.block_number,
            }).encode("utf-8")
            return format_response(200, body, _JSON, keep_alive)
        if path in _ROUTES:
            self.stats.count_rejection("method_not_allowed")
            return format_response(405, b'{"error": "method not allowed"}', _JSON, keep_alive)
        self.stats.count_rejection("not_found")
        return format_response(404, b'{"error": "not found"}', _JSON, keep_alive)

    def _admit_batch(self, payload: Any) -> None:
        """The gateway's pre-dispatch check: a counted error past ``max_batch``."""
        if isinstance(payload, list) and len(payload) > self.config.max_batch:
            self.stats.count_rejection("batch_too_large")
            raise JsonRpcError(
                INVALID_REQUEST, f"batch of {len(payload)} exceeds the "
                                 f"{self.config.max_batch}-request cap")

    # -- websocket -----------------------------------------------------------

    def _dispatch_ws(self, session: _WsSession, payload: bytes) -> None:
        """One text message, through the gateway like a POST body, with
        ``eth_subscribe`` / ``eth_unsubscribe`` bound to this session's
        subscriptions for the one synchronous call."""
        self.stats.ws_messages_total += 1
        eth = self.gateway.eth
        eth.subscriptions = session.subs
        try:
            reply = self.gateway.handle_raw(payload, self._admit_batch)
        finally:
            eth.subscriptions = None
        if reply:
            session.send(encode_frame(OP_TEXT, reply))
        self.pump_subscriptions()


#: How long :meth:`ServerThread.stop` waits for the server thread to exit.
STOP_TIMEOUT_SECONDS = 30.0


class ServerThread:
    """Host an :class:`RpcHttpServer` on a dedicated event-loop thread.

    Tests and the self-hosted HTTP load driver talk to the server over real
    sockets from other threads/processes; every chain access stays on this
    one loop thread, so the simulated stack needs no locks.
    """

    def __init__(self, server: RpcHttpServer) -> None:
        self.server = server
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-net-server")
        self._error: Optional[BaseException] = None

    def start(self) -> int:
        """Start serving; returns the bound port."""
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise NetworkError("server thread failed to start in 30s")
        if self._error is not None:
            raise NetworkError(f"server failed to start: {self._error}")
        return self.server.port

    def stop(self) -> None:
        """Request a graceful drain and join the thread (for at most
        :data:`STOP_TIMEOUT_SECONDS`)."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=STOP_TIMEOUT_SECONDS)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        finally:
            self._ready.set()
        await self._stop.wait()
        await self.server.shutdown()

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()


# -- the serve stack ---------------------------------------------------------


class DevNamespace:
    """Serve-only helpers a *remote* client needs (no in-process faucet).

    Mounted by :func:`build_serve_stack`, never by the embedded gateways --
    a real deployment would put these behind operator auth, and the
    reference surface in ``docs/rpc.md`` deliberately excludes them (they
    are documented in ``docs/networking.md`` instead).
    """

    def __init__(self, stack: Any) -> None:
        self.faucet = stack.faucet
        self.server: Optional[RpcHttpServer] = None

    def fund_account(self, address: str, amount_wei: Optional[int] = None) -> str:
        """Faucet-credit ``address`` (default 1 ether); returns its balance."""
        from repro.rpc.protocol import to_quantity

        self.faucet.drip(address, amount_wei)
        return to_quantity(self.faucet.node.get_balance(address))

    def server_status(self) -> Dict[str, Any]:
        """Server introspection: config, connection stats, subscriptions."""
        if self.server is None:
            raise NetworkError("no server attached to this namespace")
        return self.server.status()

    def methods(self) -> Dict[str, Any]:
        return {
            "dev_fundAccount": self.fund_account,
            "net_serverStatus": self.server_status,
        }


def build_serve_stack(
    config: Optional[NetConfig] = None,
    *,
    batch_verify: Optional[int] = None,
    store: Optional[str] = None,
    obs: bool = False,
    logger: Optional[Callable[[str], None]] = None,
) -> RpcHttpServer:
    """A fully wired server: chain + IPFS + gateway + dev RPC.

    What ``repro serve`` boots and ``bench/`` embeds: a stack from
    :func:`repro.system.stack.build_stack` plus what only a server needs -- a
    log-backed engine for ``store``, one ``serve-ipfs`` daemon so ``ipfs_add``
    works out of the box, the :class:`DevNamespace`, and the server.  A
    ``store`` that holds history is reopened, chain and IPFS blocks alike.
    """
    from repro.system.stack import build_stack

    storage = None
    if store is not None:
        from repro.storage.engine import StorageConfig

        storage = StorageConfig(backend="log", directory=store)
    stack = build_stack(storage=storage, batch_verify=batch_verify,
                        observability=obs)
    ipfs = stack.ipfs_node("serve-ipfs")
    stack.gateway.serve_ipfs_node(ipfs)
    if store is not None and logger is not None:
        repo = ipfs.repo_stat()
        logger(f"store {store}: chain at height {stack.node.block_number}, "
               f"{len(stack.node.chain.mempool)} pending transaction(s) re-queued, "
               f"{repo['num_blocks']} IPFS block(s) ({repo['repo_size_bytes']} bytes)")
    dev = DevNamespace(stack)
    stack.gateway.register_namespace(dev.methods())
    server = RpcHttpServer(stack, config, logger=logger)
    dev.server = server
    return server
