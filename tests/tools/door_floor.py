#!/usr/bin/env python3
"""The served door against its floor: what one cached read costs the server.

    python tests/tools/door_floor.py                   the table, 30 000 requests a server
    python tests/tools/door_floor.py --requests 2000   a quick run (what CI does)

For the tree it sits in (``src/`` beside ``tests/``), it boots three servers
as child processes, one at a time, each on an ephemeral port:

- ``python -m repro serve --port 0 --block-interval 0.05``;
- a bare ``asyncio.Protocol`` that frames each request by ``Content-Length``
  and writes a fixed reply of the same size;
- a bare ``selectors`` loop doing the same.

After a warm-up it sends ``--requests`` closed-loop ``eth_getBalance`` POSTs
(a cached read: the reply cache answers all but the first) on one keep-alive
connection, and prints the server's CPU per request (the child's ``utime +
stime`` from ``/proc/<pid>/stat`` over the timed requests, so boot and
warm-up are left out) and the client's wall per request.  Two hot-loop rows
follow, timed in this process: ``_Connection.data_received`` of the same
request on a stub transport, and ``JsonRpcGateway.handle_raw`` of a 50-call
cached batch.

Standard library only; not collected by pytest.  Linux only (it reads
``/proc``).  The CPU column has the kernel's tick as its resolution (10 ms at
the usual ``CLK_TCK`` of 100), so a short run reads it coarsely.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import re
import socket
import subprocess
import sys
import threading
import time
import timeit
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
HOST = "127.0.0.1"
ADDRESS = "0x" + "5a" * 20
WARM_UP = 500

_BODY = json.dumps({"jsonrpc": "2.0", "id": 1, "method": "eth_getBalance",
                    "params": [ADDRESS, "latest"]}).encode()
REQUEST = (b"POST / HTTP/1.1\r\nHost: probe\r\nContent-Type: application/json\r\n"
           b"Content-Length: %d\r\n\r\n" % len(_BODY)) + _BODY
#: What the served door answers ``REQUEST`` with; the bare servers write it.
REPLY_BODY = b'{"jsonrpc": "2.0", "id": 1, "result": "0x0"}'

#: A bare asyncio server: one ``Protocol`` per socket, one buffer, framing by
#: ``Content-Length``, one fixed reply per request.
ASYNCIO_SERVER = r'''
import asyncio, sys
REPLY = sys.argv[1].encode()
HEAD = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: keep-alive\r\n\r\n" % len(REPLY)

class Door(asyncio.Protocol):
    def connection_made(self, transport):
        self.transport, self.buffer = transport, bytearray()

    def data_received(self, data):
        buffer = self.buffer
        buffer += data
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end < 0:
                return
            marker = buffer.lower().find(b"content-length:", 0, end)
            length = int(buffer[marker + 15:buffer.find(b"\r\n", marker)]) if marker >= 0 else 0
            if len(buffer) < end + 4 + length:
                return
            del buffer[:end + 4 + length]
            self.transport.write(HEAD + REPLY)

async def main():
    server = await asyncio.get_running_loop().create_server(Door, "127.0.0.1", 0)
    print("listening on", server.sockets[0].getsockname()[1], flush=True)
    await asyncio.Event().wait()

asyncio.run(main())
'''

#: The same server on a bare ``selectors`` loop.
SELECTORS_SERVER = r'''
import selectors, socket, sys
REPLY = sys.argv[1].encode()
HEAD = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: keep-alive\r\n\r\n" % len(REPLY)
selector = selectors.DefaultSelector()
listener = socket.create_server(("127.0.0.1", 0))
listener.setblocking(False)
selector.register(listener, selectors.EVENT_READ)
buffers = {}
print("listening on", listener.getsockname()[1], flush=True)
while True:
    for key, _ in selector.select():
        sock = key.fileobj
        if sock is listener:
            conn, _ = listener.accept()
            conn.setblocking(False)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            buffers[conn] = bytearray()
            selector.register(conn, selectors.EVENT_READ)
            continue
        data = sock.recv(65536)
        if not data:
            selector.unregister(sock)
            sock.close()
            del buffers[sock]
            continue
        buffer = buffers[sock]
        buffer += data
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end < 0:
                break
            marker = buffer.lower().find(b"content-length:", 0, end)
            length = int(buffer[marker + 15:buffer.find(b"\r\n", marker)]) if marker >= 0 else 0
            if len(buffer) < end + 4 + length:
                break
            del buffer[:end + 4 + length]
            sock.sendall(HEAD + REPLY)
'''


def cpu_seconds(pid: int) -> float:
    """A process's user plus system CPU time so far, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Client:
    """One keep-alive connection that reads each reply by ``Content-Length``."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection((HOST, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rest = b""

    def exchange(self, request: bytes) -> bytes:
        self.sock.sendall(request)
        buffered = self.rest
        while b"\r\n\r\n" not in buffered:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("the server closed the connection")
            buffered += chunk
        head, _, rest = buffered.partition(b"\r\n\r\n")
        marker = head.lower().find(b"content-length:")
        length = int(head[marker + 15:].split(b"\r\n", 1)[0])
        while len(rest) < length:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("the server closed the connection mid-body")
            rest += chunk
        self.rest = rest[length:]
        if not head.startswith(b"HTTP/1.1 200 "):
            raise ConnectionError(f"unexpected reply {head[:40]!r}")
        return rest[:length]

    def close(self) -> None:
        self.sock.close()


def serve_row(argv: List[str], requests: int) -> Tuple[float, float]:
    """Boot one server child, drive it, stop it: (server CPU, client wall)
    per request, in microseconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
    try:
        port = None
        while port is None:
            line = child.stdout.readline()
            if not line:
                raise RuntimeError(f"{argv[:4]} exited before listening")
            found = re.search(r"listening on (?:http://[^:]+:)?(\d+)", line)
            if found:
                port = int(found.group(1))
        # Whatever the child logs from here on must not fill the pipe.
        threading.Thread(target=child.stdout.read, daemon=True).start()
        client = Client(port)
        try:
            for _ in range(WARM_UP):
                reply = client.exchange(REQUEST)
            if reply != REPLY_BODY:
                raise RuntimeError(f"{argv[:4]} answered {reply[:80]!r}")
            cpu_before, began = cpu_seconds(child.pid), time.perf_counter()
            for _ in range(requests):
                client.exchange(REQUEST)
            wall = time.perf_counter() - began
            cpu = cpu_seconds(child.pid) - cpu_before
        finally:
            client.close()
    finally:
        child.terminate()
        try:
            child.wait(timeout=15)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
    return cpu / requests * 1e6, wall / requests * 1e6


class _StubTransport:
    """What ``_Connection`` writes to, with nothing behind it."""

    def write(self, data: bytes) -> None:
        pass

    def is_closing(self) -> bool:
        return False

    def close(self) -> None:
        pass


def hot_rows(number: int) -> List[Tuple[str, float]]:
    """Best-of-seven microseconds per call of the two in-process rows."""
    sys.path.insert(0, str(SRC))
    from repro.net import NetConfig, build_serve_stack
    from repro.net.server import _Connection

    rows: List[Tuple[str, float]] = []

    async def drive() -> None:
        server = build_serve_stack(NetConfig(port=0, block_interval_seconds=0))
        try:
            connection = _Connection(server)
            connection.connection_made(_StubTransport())
            gateway = server.gateway
            batch = json.dumps([
                {"jsonrpc": "2.0", "id": index, "method": "eth_getBalance",
                 "params": ["0x%040x" % (index % 10), "latest"]}
                for index in range(50)]).encode()
            for _ in range(WARM_UP):
                connection.data_received(REQUEST)
            gateway.handle_raw(batch)
            for name, call, count in (
                    ("_Connection.data_received, one cached eth_getBalance POST",
                     lambda: connection.data_received(REQUEST), number),
                    ("JsonRpcGateway.handle_raw, a 50-call cached batch",
                     lambda: gateway.handle_raw(batch), max(number // 40, 1))):
                best = min(timeit.repeat(call, number=count, repeat=7))
                rows.append((name, best / count * 1e6))
        finally:
            server.stack.close()

    asyncio.run(drive())
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--requests", type=int, default=30_000,
                        help="timed requests per server (default 30000)")
    args = parser.parse_args(argv)
    if args.requests <= 0:
        parser.error("--requests must be positive")
    python = sys.executable
    servers = [
        ("repro serve", [python, "-m", "repro", "serve", "--port", "0",
                         "--block-interval", "0.05"]),
        ("bare asyncio Protocol", [python, "-c", ASYNCIO_SERVER, REPLY_BODY.decode()]),
        ("bare selectors loop", [python, "-c", SELECTORS_SERVER, REPLY_BODY.decode()]),
    ]
    print(f"tree {ROOT}; Python {platform.python_version()}; {os.cpu_count()} CPUs; "
          f"{args.requests} cached eth_getBalance requests a server after {WARM_UP} "
          f"to warm up, one keep-alive connection")
    print(f"| server | server CPU per request | client wall per request |")
    print(f"|--------|------------------------|-------------------------|")
    for name, command in servers:  # one child at a time
        cpu, wall = serve_row(command, args.requests)
        print(f"| {name} | {cpu:.1f} µs | {wall:.1f} µs |", flush=True)
    print()
    print("| hot loop, in this process | per call |")
    print("|---------------------------|----------|")
    for name, micros in hot_rows(max(args.requests // 3, 100)):
        print(f"| {name} | {micros:.2f} µs |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
