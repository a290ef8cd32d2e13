"""A child ``repro serve`` process and a raw-socket client that is not the
bottleneck.

Requests are JSON-encoded and HTTP-framed before the clock starts, sent with
``sendall`` and read back by ``Content-Length``; replies stay bytes until the
clock has stopped.  ``http.client`` spends more than half of a read request's
time in the generator (2.4-2.9 k req/s against 6-7.9 k req/s for the same
server driven this way), so it is used nowhere in a timed section.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

HOST = "127.0.0.1"
_HEAD = (b"POST / HTTP/1.1\r\nHost: bench\r\n"
         b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n")

#: One timed exchange: seconds from first byte sent to last byte read, HTTP
#: status, body bytes.
Reply = Tuple[float, int, bytes]


def call(method: str, params: Sequence[Any], request_id: int = 1) -> Dict[str, Any]:
    return {"jsonrpc": "2.0", "id": request_id, "method": method,
            "params": list(params)}


def frame(payload: Any) -> bytes:
    """One ready-to-send POST for a call envelope or a list of them."""
    body = json.dumps(payload).encode("utf-8")
    return _HEAD % len(body) + body


class Connection:
    """One keep-alive connection; ``exchange`` is the whole client hot path."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection((HOST, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rest = b""

    def exchange(self, request: bytes) -> Tuple[int, bytes]:
        sock = self.sock
        sock.sendall(request)
        buffered = self._rest
        while True:
            end = buffered.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-reply")
            buffered += chunk
        head = buffered[:end]
        status = int(head[9:12])
        marker = head.lower().find(b"content-length:")
        if marker < 0:
            raise ConnectionError("reply without Content-Length")
        line_end = head.find(b"\r\n", marker)
        length = int(head[marker + 15:line_end if line_end >= 0 else len(head)])
        start = end + 4
        have = len(buffered) - start
        if have >= length:
            self._rest = buffered[start + length:]
            return status, buffered[start:start + length]
        body = bytearray(length)
        body[:have] = buffered[start:]
        view = memoryview(body)
        while have < length:
            got = sock.recv_into(view[have:])
            if not got:
                raise ConnectionError("server closed the connection mid-body")
            have += got
        self._rest = b""
        return status, bytes(body)

    def rpc(self, method: str, params: Sequence[Any] = ()) -> Any:
        """Untimed convenience for set-up and checks: result or raise."""
        _status, body = self.exchange(frame(call(method, params)))
        reply = json.loads(body)
        if "error" in reply:
            raise RuntimeError(f"{method} failed: {reply['error']}")
        return reply["result"]

    def rpc_batch(self, calls: Sequence[Tuple[str, Sequence[Any]]]) -> List[Any]:
        """Untimed batch POST: results in call order, raising on any error."""
        payload = [call(method, params, index)
                   for index, (method, params) in enumerate(calls)]
        _status, body = self.exchange(frame(payload))
        replies = {reply["id"]: reply for reply in json.loads(body)}
        results = []
        for index, (method, _params) in enumerate(calls):
            reply = replies[index]
            if "error" in reply:
                raise RuntimeError(f"{method} failed: {reply['error']}")
            results.append(reply["result"])
        return results

    def get(self, path: str) -> bytes:
        request = b"GET %s HTTP/1.1\r\nHost: bench\r\n\r\n" % path.encode("ascii")
        status, body = self.exchange(request)
        if status != 200:
            raise RuntimeError(f"GET {path} returned {status}")
        return body

    def close(self) -> None:
        self.sock.close()


@dataclass
class Driven:
    """One closed-loop section: wall from the first send to the last reply,
    CPU seconds this process spent meanwhile, each thread's replies in send
    order."""

    wall_s: float
    cpu_s: float
    replies: List[List[Reply]]


def drive(port: int, plans: Sequence[Sequence[bytes]]) -> Driven:
    """Closed loop: one connection and one thread per plan, each sending its
    next request when the previous reply has been read."""
    connections = [Connection(port) for _ in plans]
    replies: List[List[Reply]] = [[] for _ in plans]
    errors: List[Exception] = []
    start = threading.Barrier(len(plans) + 1)

    def worker(index: int) -> None:
        exchange = connections[index].exchange
        out = replies[index]
        clock = time.perf_counter
        start.wait()
        try:
            for request in plans[index]:
                began = clock()
                status, body = exchange(request)
                out.append((clock() - began, status, body))
        except Exception as exc:  # noqa: BLE001 - raised again by the caller
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(index,), daemon=True)
               for index in range(len(plans))]
    for thread in threads:
        thread.start()
    start.wait()
    cpu_before = time.process_time()
    began = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began
    cpu = time.process_time() - cpu_before
    for connection in connections:
        connection.close()
    if errors:
        raise errors[0]
    return Driven(wall, cpu, replies)


def deal(items: Iterable[Any], hands: int) -> List[List[Any]]:
    """Round-robin ``items`` into ``hands`` lists."""
    dealt: List[List[Any]] = [[] for _ in range(hands)]
    for index, item in enumerate(items):
        dealt[index % hands].append(item)
    return dealt


def part(items: Sequence[Any], index: int, parts: int) -> Sequence[Any]:
    """The ``index``-th of ``parts`` equal consecutive slices of ``items``."""
    size = len(items) // parts
    return items[index * size:(index + 1) * size]


class ServerProcess:
    """``python -m repro serve --port 0`` as a child in this process's
    (pinned) environment, stopped with SIGTERM."""

    def __init__(self, src_dir: str, store: Optional[str], block_interval: str) -> None:
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--block-interval", block_interval]
        if store is not None:
            command += ["--store", store]
        self.proc = subprocess.Popen(
            command, env={**os.environ, "PYTHONPATH": src_dir, "PYTHONUNBUFFERED": "1"},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        self.port = 0
        self.peak_rss_mb = 0.0
        try:
            self.port = self._await_listening()
            self._await_healthy()
        except BaseException:
            self.stop()
            raise

    def _await_listening(self) -> int:
        assert self.proc.stdout is not None
        seen = []
        for line in self.proc.stdout:
            seen.append(line)
            if "listening on http://" in line:
                address = line.split("listening on http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
        raise RuntimeError("server exited before listening:\n" + "".join(seen))

    def _await_healthy(self) -> None:
        deadline = time.perf_counter() + 30
        while True:
            try:
                connection = Connection(self.port)
                try:
                    if json.loads(connection.get("/healthz"))["status"] == "ok":
                        return
                finally:
                    connection.close()
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)

    def _peak_rss_mb(self) -> float:
        """The server's own high-water mark.  ``ru_maxrss`` from ``wait4``
        would not do: it survives ``execve``, so it can never read lower than
        this process's peak at the moment it forked the child."""
        try:
            with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stop(self) -> None:
        """Record the child's peak RSS, SIGTERM, wait for the graceful drain."""
        if self.proc.returncode is not None:
            return
        self.peak_rss_mb = self._peak_rss_mb()
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
