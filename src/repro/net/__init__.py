"""``repro.net`` -- the wire transport in front of the JSON-RPC gateway.

Everything below is standard library only (asyncio + sockets): an HTTP/1.1
server with WebSocket upgrade (:mod:`repro.net.server`), push
subscriptions sharing the polling filters' cursor logic
(:mod:`repro.net.subscriptions`), and the RFC 6455 codec plus a blocking
test client (:mod:`repro.net.websocket`).
"""

from repro.net.server import (
    DevNamespace,
    NetConfig,
    RpcHttpServer,
    ServerThread,
    build_serve_stack,
)
from repro.net.subscriptions import SUBSCRIPTION_KINDS, SubscriptionManager
from repro.net.websocket import WebSocketClient

__all__ = [
    "DevNamespace",
    "NetConfig",
    "RpcHttpServer",
    "SUBSCRIPTION_KINDS",
    "ServerThread",
    "SubscriptionManager",
    "WebSocketClient",
    "build_serve_stack",
]
