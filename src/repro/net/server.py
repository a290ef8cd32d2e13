"""The asyncio HTTP/WebSocket door in front of the JSON-RPC gateway.

:class:`RpcHttpServer` serves four routes off one listening socket:

* ``POST /`` (or ``/rpc``) -- single or batch JSON-RPC, the gateway's
  ``handle_raw`` verbatim;
* ``GET /ws`` -- WebSocket upgrade; JSON-RPC over frames plus
  ``eth_subscribe`` / ``eth_unsubscribe`` push (newHeads,
  newPendingTransactions, logs);
* ``GET /metrics`` -- the unified registry in Prometheus text format;
* ``GET /healthz`` -- readiness (status + chain height).

Operational hardening is explicit config, not hope: a global connection
limit (503 past it), request-head/body/batch size caps, read timeouts on
in-flight requests, bounded per-socket send queues whose overflow
disconnects the slow consumer and drops its subscriptions, and a graceful
drain on shutdown (stop accepting, close WebSockets with a going-away
frame, bounded wait for in-flight requests, flush storage).

Everything chain-touching runs on the single event-loop thread, so the
simulated stack needs no locking of its own; :class:`ServerThread` hosts
that loop for tests and the self-hosted HTTP load driver.
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.errors import (
    NetworkError,
    PayloadTooLargeError,
    ProtocolViolationError,
)
from repro.net.http import HttpRequest, format_response, parse_head
from repro.net.subscriptions import SubscriptionManager
from repro.net.websocket import (
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    accept_key,
    encode_frame,
    read_frame,
)
from repro.obs.adapters import collect_net_server
from repro.rpc.protocol import (
    INVALID_PARAMS,
    INVALID_REQUEST,
    JsonRpcError,
    error_response,
    success_response,
)


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
    """Envelopes per batch POST; larger batches get an invalid-request error."""

    read_timeout_seconds: float = 10.0
    """Budget for reading one in-flight request (the slow-loris bound)."""

    keepalive_timeout_seconds: float = 300.0
    """Idle budget between requests on a kept-alive HTTP connection."""

    send_queue_frames: int = 256
    """Bounded per-WebSocket send queue; overflow disconnects the consumer."""

    block_interval_seconds: float = 0.5
    """Producer cadence: mine pending transactions every interval
    (wall-clock).  ``0`` disables the producer -- clients mine explicitly
    via ``evm_mine``."""

    drain_timeout_seconds: float = 5.0
    """Graceful-shutdown budget for in-flight requests before force-close."""

    def __post_init__(self) -> None:
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
    http_requests: Dict[str, int] = field(default_factory=dict)
    ws_messages_total: int = 0
    notifications_total: int = 0
    rejections: Dict[str, int] = field(default_factory=dict)
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
    """One upgraded WebSocket connection: subscriptions + bounded send queue."""

    def __init__(self, server: "RpcHttpServer", writer: asyncio.StreamWriter) -> None:
        self.server = server
        self.writer = writer
        self.subs = SubscriptionManager(server.node)
        self.queue: asyncio.Queue = asyncio.Queue(
            maxsize=server.config.send_queue_frames)
        self.writer_task: Optional[asyncio.Task] = None
        self.closed = False

    def enqueue_text(self, text: str) -> bool:
        """Queue one outbound text frame; False kicks the slow consumer."""
        if self.closed:
            return False
        try:
            self.queue.put_nowait(encode_frame(OP_TEXT, text.encode("utf-8")))
        except asyncio.QueueFull:
            self.kick("slow_consumer")
            return False
        return True

    def enqueue_raw(self, frame: bytes) -> bool:
        if self.closed:
            return False
        try:
            self.queue.put_nowait(frame)
        except asyncio.QueueFull:
            self.kick("slow_consumer")
            return False
        return True

    def kick(self, reason: str) -> None:
        """Disconnect a misbehaving/slow consumer and drop its subscriptions."""
        if self.closed:
            return
        self.closed = True
        stats = self.server.stats
        stats.slow_consumer_disconnects_total += 1
        stats.dropped_subscriptions_total += self.subs.clear()
        stats.count_rejection(reason)
        # Abort rather than drain: the consumer is not reading, so a queued
        # close frame would never flush.
        self.writer.transport.abort()

    def close_gracefully(self) -> None:
        """Send a going-away close frame (drain path)."""
        if self.closed:
            return
        self.closed = True
        self.subs.clear()
        try:
            self.queue.put_nowait(encode_frame(OP_CLOSE, b"\x03\xe9"))  # 1001
        except asyncio.QueueFull:
            self.writer.transport.abort()

    async def run_writer(self) -> None:
        """Drain the send queue onto the socket until the close frame goes."""
        try:
            while True:
                frame = await self.queue.get()
                self.writer.write(frame)
                await self.writer.drain()
                if frame[:1] and (frame[0] & 0x0F) == OP_CLOSE:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass


class _Connection(asyncio.StreamReaderProtocol):
    """One accepted socket: HTTP answered in the loop turn its bytes arrive.

    One buffer, one timer, no task: every complete request in the buffer is
    parsed, dispatched and written back synchronously.  ``deadline`` is the
    current one, a loop time -- ``read_timeout_seconds`` for a head, again
    for its body (408), ``keepalive_timeout_seconds`` between requests
    (silent close).  Moving it is a store; the timer moves only to an
    earlier deadline, and a timer that fires before ``deadline`` re-arms
    there.  A peer that stops reading pauses processing and the read side
    until the write buffer drains.  Only a ``GET /ws`` upgrade hands the socket
    to the base class's reader, for the coroutine WebSocket session.
    """

    def __init__(self, server: "RpcHttpServer") -> None:
        self.reader = asyncio.StreamReader(
            limit=server.config.max_request_bytes + 4096)
        super().__init__(self.reader)
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
        self.ws_task: Optional[asyncio.Task] = None

    def connection_made(self, transport: Any) -> None:
        super().connection_made(transport)
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
        if self in self.server._connections:
            self.server._connections.discard(self)
            self.server.stats.open_connections -= 1
        super().connection_lost(exc)

    def data_received(self, data: bytes) -> None:
        if self.ws_task is not None:
            super().data_received(data)
            return
        scan_from = max(len(self.buffer) - 3, 0)
        self.buffer += data
        if self.pending is None or len(self.buffer) >= self.pending[2]:
            self._process(scan_from)

    def eof_received(self) -> Optional[bool]:
        if self.ws_task is not None:
            return super().eof_received()
        if self.buffer:
            self._reject(ProtocolViolationError(
                "connection closed mid-body" if self.pending is not None
                else "truncated HTTP request head"))
        return None  # the transport flushes what is queued, then closes

    def pause_writing(self) -> None:
        super().pause_writing()
        if self.ws_task is None:
            self.write_paused = True
            self.transport.pause_reading()

    def resume_writing(self) -> None:
        super().resume_writing()
        if self.write_paused:
            self.write_paused = False
            if not self.transport.is_closing():
                self.transport.resume_reading()
                self._process()

    def _process(self, scan_from: int = 0) -> None:
        """Answer every complete request in the buffer, then set the deadline."""
        server, config, buffer = self.server, self.server.config, self.buffer
        while not self.write_paused and not self.transport.is_closing():
            pending = self.pending
            if pending is None:
                try:
                    pending = parse_head(buffer, config.max_request_bytes, scan_from)
                except ProtocolViolationError as exc:
                    self._reject(exc)
                    return
                scan_from = 0
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
            with memoryview(buffer) as view:
                request.body = bytes(view[start:total])
            del buffer[:total]
            if request.method == "GET" and request.path == "/ws":
                self._arm(None)
                # Frames that shared a segment with the handshake go first.
                self.reader.feed_data(bytes(buffer))
                buffer.clear()
                self.ws_task = self.loop.create_task(self._run_websocket(request))
                return
            keep_alive = request.wants_keep_alive() and not server._draining
            self.transport.write(server._respond_http(request, keep_alive))
            if not keep_alive:
                self.transport.close()
                return
            self.idle = True
        if self.write_paused:
            self._arm(None)  # the peer owes reads, not bytes: no deadline
        elif not buffer:
            self._arm(config.keepalive_timeout_seconds)
        elif self.idle:  # the first bytes of the next request
            self.idle = False
            self._arm(config.read_timeout_seconds)

    async def _run_websocket(self, request: HttpRequest) -> None:
        """The upgraded session, on the base class's reader and a writer."""
        writer = asyncio.StreamWriter(self.transport, self, self.reader, self.loop)
        try:
            await self.server._serve_websocket(request, self.reader, writer)
        except (ConnectionError, ProtocolViolationError):
            pass
        finally:
            self.transport.close()

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
        """Hostile or broken bytes: a typed, counted 400 (413 when too large)."""
        too_large = isinstance(exc, PayloadTooLargeError)
        self.server.stats.count_rejection("protocol")
        if too_large:
            self.server.stats.count_rejection("too_large")
        self._refuse(413 if too_large else 400, str(exc))

    def _refuse(self, status: int, message: str) -> None:
        self.transport.write(format_response(
            status, json.dumps({"error": message}).encode(), keep_alive=False))
        self.transport.close()


class RpcHttpServer:
    """Serves one stack's JSON-RPC gateway over HTTP and WebSocket."""

    def __init__(
        self,
        stack: Any,
        config: Optional[NetConfig] = None,
        *,
        logger: Optional[Callable[[str], None]] = None,
    ) -> None:
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
        self._producer_task: Optional[asyncio.Task] = None
        self._draining = False
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
        return max((session.queue.qsize() for session in self._ws_sessions),
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
            self._producer_task = asyncio.ensure_future(self._producer_loop())
        self._log(f"listening on http://{self.config.host}:{self.port} "
                  f"(POST /, WebSocket /ws, GET /metrics, GET /healthz)")

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, flush, close."""
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._producer_task is not None:
            self._producer_task.cancel()
            try:
                await self._producer_task
            except asyncio.CancelledError:
                pass
        for session in list(self._ws_sessions):
            session.close_gracefully()
        for connection in list(self._connections):
            if connection.ws_task is None and not connection.buffer:
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
        self.stack.close()
        self._log("graceful shutdown complete")

    async def run(self, stop: asyncio.Event) -> None:
        """Start, serve until ``stop`` is set, then drain."""
        await self.start()
        await stop.wait()
        await self.shutdown()

    # -- block production ----------------------------------------------------

    async def _producer_loop(self) -> None:
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
                if not session.enqueue_text(message):
                    break
                self.stats.notifications_total += 1

    # -- connection handling -------------------------------------------------

    def _respond_http(self, request: HttpRequest, keep_alive: bool) -> bytes:
        path, method = request.path, request.method
        if method == "POST" and path in ("/", "/rpc"):
            self.stats.count_request("rpc")
            reply = self.gateway.handle_raw(request.body, self._admit_batch)
            self.pump_subscriptions()
            # A notification-only payload has no reply; HTTP still needs a body.
            return format_response(200, reply.encode("utf-8"), keep_alive=keep_alive)
        if method == "GET" and path == "/metrics":
            self.stats.count_request("metrics")
            text = self.stack.registry.render_prometheus().encode("utf-8")
            return format_response(
                200, text, content_type="text/plain; version=0.0.4",
                keep_alive=keep_alive)
        if method == "GET" and path == "/healthz":
            self.stats.count_request("healthz")
            body = json.dumps({
                "status": "draining" if self._draining else "ok",
                "height": self.node.block_number,
            }).encode("utf-8")
            return format_response(200, body, keep_alive=keep_alive)
        if path in ("/", "/rpc", "/metrics", "/healthz", "/ws"):
            self.stats.count_rejection("method_not_allowed")
            return format_response(405, b'{"error": "method not allowed"}',
                                   keep_alive=keep_alive)
        self.stats.count_rejection("not_found")
        return format_response(404, b'{"error": "not found"}',
                               keep_alive=keep_alive)

    def _admit_batch(self, payload: Any) -> None:
        """The gateway's pre-dispatch check: a counted error past ``max_batch``."""
        if isinstance(payload, list) and len(payload) > self.config.max_batch:
            self.stats.count_rejection("batch_too_large")
            raise JsonRpcError(
                INVALID_REQUEST, f"batch of {len(payload)} exceeds the "
                                 f"{self.config.max_batch}-request cap")

    # -- websocket -----------------------------------------------------------

    async def _serve_websocket(self, request: HttpRequest,
                               reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        key = request.headers.get("sec-websocket-key")
        if not request.is_websocket_upgrade() or not key:
            self.stats.count_rejection("bad_upgrade")
            writer.write(format_response(
                426, b'{"error": "this endpoint speaks WebSocket"}',
                keep_alive=False, extra_headers=(("Upgrade", "websocket"),)))
            await writer.drain()
            return
        writer.write(
            b"HTTP/1.1 101 Switching Protocols\r\n"
            b"Upgrade: websocket\r\n"
            b"Connection: Upgrade\r\n"
            b"Sec-WebSocket-Accept: " + accept_key(key).encode("ascii")
            + b"\r\n\r\n")
        await writer.drain()
        self.stats.ws_connections_total += 1
        self.stats.open_ws_connections += 1
        # Keep the transport's own buffer small so a slow consumer shows up
        # at the *bounded* send queue (where it is counted and kicked)
        # instead of hiding inside a multi-megabyte kernel buffer.
        try:
            writer.transport.set_write_buffer_limits(high=16_384)
        except (AttributeError, NotImplementedError):
            pass
        session = _WsSession(self, writer)
        session.writer_task = asyncio.ensure_future(session.run_writer())
        self._ws_sessions.add(session)
        try:
            await self._ws_reader_loop(session, reader)
        finally:
            self.stats.open_ws_connections -= 1
            self._ws_sessions.discard(session)
            if not session.closed:
                session.closed = True
                session.subs.clear()
            session.writer_task.cancel()
            try:
                await session.writer_task
            except asyncio.CancelledError:
                pass

    async def _ws_reader_loop(self, session: _WsSession,
                              reader: asyncio.StreamReader) -> None:
        while not session.closed:
            try:
                opcode, payload = await read_frame(
                    reader, max_bytes=self.config.max_request_bytes)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            if opcode == OP_CLOSE:
                session.enqueue_raw(encode_frame(OP_CLOSE, payload[:2]))
                return
            if opcode == OP_PING:
                session.enqueue_raw(encode_frame(OP_PONG, payload))
                continue
            if opcode == OP_PONG:
                continue
            if opcode != OP_TEXT:
                continue
            self.stats.ws_messages_total += 1
            reply = self._dispatch_ws(session, payload.decode("utf-8"))
            if reply:
                session.enqueue_text(reply)
            self.pump_subscriptions()

    def _dispatch_ws(self, session: _WsSession, text: str) -> str:
        """One WebSocket message: subscription calls local, rest via gateway."""
        try:
            payload = json.loads(text)
        except ValueError:
            return self.gateway.handle_raw(text)  # renders the parse error
        if isinstance(payload, dict) and payload.get("method") in (
                "eth_subscribe", "eth_unsubscribe"):
            return json.dumps(self._handle_subscription_call(session, payload),
                              default=str)
        return self.gateway.handle_raw(text)

    def _handle_subscription_call(self, session: _WsSession,
                                  payload: Dict[str, Any]) -> Dict[str, Any]:
        request_id = payload.get("id")
        params = payload.get("params") or []
        try:
            if not isinstance(params, list) or not params:
                raise JsonRpcError(
                    INVALID_PARAMS,
                    f"{payload.get('method')} takes positional params")
            if payload.get("method") == "eth_subscribe":
                criteria = None
                if params[0] == "logs" and len(params) > 1:
                    from repro.rpc.namespaces import _log_filter_from_params

                    criteria = _log_filter_from_params(self.node, params[1])
                result: Any = session.subs.subscribe(params[0], criteria)
            else:
                result = session.subs.unsubscribe(str(params[0]))
        except JsonRpcError as exc:
            return error_response(request_id, exc.code, exc.message, exc.data)
        return success_response(request_id, result)

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

    def stop(self, timeout: float = 30.0) -> None:
        """Request a graceful drain and join the thread."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=timeout)

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
    cluster: Optional[int] = None,
    batch_verify: Optional[int] = None,
    store: Optional[str] = None,
    obs: bool = False,
    seed: int = 7,
    logger: Optional[Callable[[str], None]] = None,
) -> RpcHttpServer:
    """A fully wired server: chain (or cluster) + IPFS + gateway + dev RPC.

    What ``repro serve`` boots and ``bench/`` embeds: a stack from
    :func:`repro.system.stack.build_stack` plus what only a server needs -- a
    log-backed engine for ``store``, one ``serve-ipfs`` daemon so ``ipfs_add``
    works out of the box, the :class:`DevNamespace`, and the server.
    """
    from repro.ipfs.node import IpfsNode
    from repro.system.stack import build_stack

    if cluster is not None and store is not None:
        raise NetworkError("--store is a single-node knob; a cluster's "
                           "replicas own their engines")
    storage = cluster_config = None
    if store is not None:
        from repro.storage.engine import StorageConfig

        storage = StorageConfig(backend="log", directory=store)
    if cluster is not None:
        from repro.cluster import ClusterConfig
        from repro.utils.rng import derive_seed

        cluster_config = ClusterConfig(replicas=cluster,
                                       seed=derive_seed(seed, "serve"))
    stack = build_stack(storage=storage, cluster=cluster_config,
                        batch_verify=batch_verify, observability=obs)
    stack.gateway.serve_ipfs_node(IpfsNode("serve-ipfs", swarm=stack.swarm))
    dev = DevNamespace(stack)
    stack.gateway.register_namespace(dev.methods())
    server = RpcHttpServer(stack, config, logger=logger)
    dev.server = server
    return server
