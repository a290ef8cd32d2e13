"""The asyncio HTTP server: routes, caps, keep-alive, drain."""

import http.client
import json
import socket

import pytest

from repro.errors import NetworkError
from repro.net import NetConfig, RpcHttpServer, ServerThread, build_serve_stack


def make_server(**overrides):
    defaults = dict(port=0, block_interval_seconds=0)
    defaults.update(overrides)
    return build_serve_stack(NetConfig(**defaults))


def post(port, payload, path="/"):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("POST", path, body=json.dumps(payload),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


def get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class TestNetConfig:
    def test_defaults_are_valid(self):
        config = NetConfig()
        assert config.port == 8545
        assert config.max_batch == 100

    @pytest.mark.parametrize("field,value", [
        ("max_connections", 0),
        ("max_request_bytes", 10),
        ("max_batch", 0),
        ("read_timeout_seconds", 0),
        ("send_queue_frames", 0),
        ("block_interval_seconds", -1),
    ])
    def test_bad_values_are_rejected(self, field, value):
        with pytest.raises(NetworkError):
            NetConfig(**{field: value})

    def test_to_dict_round_trips_every_knob(self):
        config = NetConfig(port=0, max_batch=7)
        assert NetConfig(**config.to_dict()).max_batch == 7


class TestRoutes:
    @pytest.fixture()
    def port(self):
        server = make_server()
        with ServerThread(server):
            yield server.port

    def test_single_rpc_post(self, port):
        status, reply = post(port, {"jsonrpc": "2.0", "id": 1,
                                    "method": "eth_chainId", "params": []})
        assert status == 200
        assert reply["result"] == "0xaa36a7"

    def test_batch_rpc_post_preserves_order(self, port):
        batch = [{"jsonrpc": "2.0", "id": index,
                  "method": "eth_blockNumber", "params": []}
                 for index in range(5)]
        status, replies = post(port, batch, path="/rpc")
        assert status == 200
        assert [reply["id"] for reply in replies] == list(range(5))

    def test_batch_over_the_cap_gets_an_error_envelope(self):
        server = make_server(max_batch=3)
        with ServerThread(server):
            batch = [{"jsonrpc": "2.0", "id": index,
                      "method": "eth_blockNumber", "params": []}
                     for index in range(4)]
            status, reply = post(server.port, batch)
        assert status == 200
        assert reply == {"jsonrpc": "2.0", "id": None, "error": {
            "code": -32600, "message": "batch of 4 exceeds the 3-request cap"}}
        assert server.stats.rejections == {"batch_too_large": 1}
        assert server.gateway.metrics.requests_total == 0

    def test_healthz_reports_height(self, port):
        status, body = get(port, "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok", "height": 0}

    def test_metrics_exposes_rpc_request_counter(self, port):
        post(port, {"jsonrpc": "2.0", "id": 1,
                    "method": "eth_blockNumber", "params": []})
        status, body = get(port, "/metrics")
        assert status == 200
        text = body.decode()
        assert 'repro_rpc_requests_total{method="eth_blockNumber"} 1' in text
        assert "repro_net_open_connections" in text

    def test_unknown_path_is_404(self, port):
        assert get(port, "/nope")[0] == 404

    def test_wrong_method_is_405(self, port):
        assert get(port, "/")[0] == 405

    def test_oversized_body_is_413(self):
        server = make_server(max_request_bytes=2048)
        with ServerThread(server):
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=10)
            try:
                conn.request("POST", "/", body="x" * 4096)
                assert conn.getresponse().status == 413
            finally:
                conn.close()

    @pytest.mark.parametrize("pad", [3000, 8000],
                             ids=["past-the-cap", "past-the-stream-limit"])
    def test_oversized_head_is_413(self, pad):
        server = make_server(max_request_bytes=2048)
        with ServerThread(server):
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as sock:
                sock.sendall(b"POST / HTTP/1.1\r\nx-pad: " + b"a" * pad
                             + b"\r\n\r\n")
                reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 413 ")
        assert server.stats.rejections == {"protocol": 1, "too_large": 1}

    def test_keep_alive_serves_many_requests_on_one_socket(self, port):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            for index in range(3):
                conn.request("POST", "/", body=json.dumps(
                    {"jsonrpc": "2.0", "id": index,
                     "method": "eth_blockNumber", "params": []}))
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["id"] == index
        finally:
            conn.close()

    def test_http_eth_subscribe_points_at_the_ws_endpoint(self, port):
        status, reply = post(port, {"jsonrpc": "2.0", "id": 1,
                                    "method": "eth_subscribe",
                                    "params": ["newHeads"]})
        assert status == 200
        assert reply["error"]["code"] == -32004
        assert "/ws" in reply["error"]["message"]

    def test_dev_fund_account_credits_over_the_wire(self, port):
        status, reply = post(port, {
            "jsonrpc": "2.0", "id": 1, "method": "dev_fundAccount",
            "params": ["0x" + "11" * 20, 1000]})
        assert status == 200
        assert int(reply["result"], 16) == 1000

    def test_server_status_reports_config_and_stats(self, port):
        status, reply = post(port, {"jsonrpc": "2.0", "id": 1,
                                    "method": "net_serverStatus", "params": []})
        assert status == 200
        document = reply["result"]
        assert document["draining"] is False
        assert document["config"]["max_batch"] == 100
        assert document["stats"]["connections_total"] >= 1


class TestMalformedRequests:
    """Hostile bytes on the hand-rolled parser: a typed 400, then a close."""

    @pytest.mark.parametrize("raw, reason", [
        pytest.param(b"NONSENSE\r\n\r\n", b"malformed HTTP request line",
                     id="request-line"),
        pytest.param(b"POST / HTTP/1.1\r\nno-colon-here\r\n\r\n",
                     b"malformed HTTP header", id="header"),
        # Classified by type, not text: "cap" in the echoed header once
        # turned this 400 into a 413 with a second ``too_large`` count.
        pytest.param(b"POST / HTTP/1.1\r\nhost: x\r\n"
                     b"x-capability-without-colon\r\n\r\n",
                     b"malformed HTTP header", id="header-mentioning-cap"),
        pytest.param(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
                     b"bad content-length", id="content-length"),
        pytest.param(b"POST / HT", b"truncated HTTP request head",
                     id="truncated-head"),
        pytest.param(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
                     b"connection closed mid-body", id="short-body"),
        # Strict framing: what ``int()`` would take is not what a proxy in
        # front of this server would, and a second reading is a smuggled
        # request.  Each was accepted before parse_head.
        pytest.param(b"POST / HTTP/1.1\r\nContent-Length: 4_7\r\n\r\n" + b"x" * 47,
                     b"bad content-length", id="content-length-underscore"),
        pytest.param(b"POST / HTTP/1.1\r\nContent-Length: +47\r\n\r\n" + b"x" * 47,
                     b"bad content-length", id="content-length-sign"),
        pytest.param(b"POST / HTTP/1.1\r\nContent-Length: \xb2\r\n\r\nxx",
                     b"bad content-length", id="content-length-non-ascii-digit"),
        pytest.param(b"POST / HTTP/1.1\r\nContent-Length: 2\r\n"
                     b"Content-Length: 47\r\n\r\n" + b"x" * 47,
                     b"conflicting content-length", id="content-length-conflict"),
        pytest.param(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                     b"2f\r\n" + b"x" * 47 + b"\r\n0\r\n\r\n",
                     b"transfer-encoding is not supported", id="chunked"),
        pytest.param(b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n"
                     b"Content-Length: 47\r\n\r\n" + b"x" * 47,
                     b"transfer-encoding is not supported",
                     id="transfer-encoding-beside-a-length"),
    ])
    def test_bad_bytes_get_a_counted_400(self, raw, reason):
        server = make_server()
        with ServerThread(server):
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as sock:
                sock.sendall(raw)
                sock.shutdown(socket.SHUT_WR)
                reply = b""
                while chunk := sock.recv(4096):
                    reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert reply.count(b"HTTP/1.1 ") == 1  # one refusal, nothing dispatched
        assert b"Connection: close" in reply
        assert reason in reply
        assert server.stats.rejections == {"protocol": 1}
        assert server.stats.http_requests == {}

    def test_agreeing_duplicate_lengths_and_leading_zeros_are_served(self):
        server = make_server()
        body = json.dumps({"jsonrpc": "2.0", "id": 1, "method": "eth_chainId",
                           "params": []}).encode()
        length = b"%04d" % len(body)
        with ServerThread(server):
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as sock:
                sock.sendall(b"POST / HTTP/1.1\r\nContent-Length: " + length
                             + b"\r\nContent-Length: " + length
                             + b"\r\nConnection: close\r\n\r\n" + body)
                reply = b""
                while chunk := sock.recv(4096):
                    reply += chunk
        assert reply.startswith(b"HTTP/1.1 200 ") and b'"0xaa36a7"' in reply

    def test_undecodable_body_is_a_parse_error_not_a_dispatch(self):
        """Invalid UTF-8 inside a JSON string used to become U+FFFD -- valid
        JSON -- and the call ran; ``json.loads(bytes)`` refuses it."""
        server = make_server()
        body = (b'{"jsonrpc": "2.0", "id": 1, "method": "eth_chainId", '
                b'"params": [], "note": "\xff"}')
        with ServerThread(server):
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            try:
                conn.request("POST", "/", body=body)
                response = conn.getresponse()
                status, reply = response.status, json.loads(response.read())
            finally:
                conn.close()
        assert status == 200
        assert reply["id"] is None and reply["error"]["code"] == -32700
        assert server.gateway.metrics.requests_total == 0

    def test_a_body_nested_past_the_recursion_limit_is_a_parse_error(self):
        """``json.loads`` raises RecursionError, not ValueError, on 200 000
        open brackets: it used to kill the connection with no reply."""
        server = make_server()
        with ServerThread(server):
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            try:
                conn.request("POST", "/", body=b"[" * 200_000)
                response = conn.getresponse()
                status, reply = response.status, json.loads(response.read())
                conn.request("GET", "/healthz")  # the socket is still served
                assert conn.getresponse().status == 200
            finally:
                conn.close()
        assert status == 200 and reply["error"]["code"] == -32700


class TestLimitsAndDrain:
    def test_connection_limit_rejects_with_503(self):
        server = make_server(max_connections=1)
        with ServerThread(server):
            first = http.client.HTTPConnection("127.0.0.1", server.port,
                                               timeout=10)
            try:
                # Occupy the only slot with an in-flight keep-alive socket.
                first.request("POST", "/", body=json.dumps(
                    {"jsonrpc": "2.0", "id": 1,
                     "method": "eth_blockNumber", "params": []}))
                first.getresponse().read()
                second = http.client.HTTPConnection("127.0.0.1", server.port,
                                                    timeout=10)
                try:
                    second.request("GET", "/healthz")
                    assert second.getresponse().status == 503
                finally:
                    second.close()
            finally:
                first.close()

    def test_graceful_shutdown_logs_completion(self):
        lines = []
        server = build_serve_stack(
            NetConfig(port=0, block_interval_seconds=0), logger=lines.append)
        thread = ServerThread(server)
        thread.start()
        post(server.port, {"jsonrpc": "2.0", "id": 1,
                           "method": "eth_blockNumber", "params": []})
        thread.stop()
        assert any("graceful shutdown complete" in line for line in lines)

    def test_an_idle_keep_alive_socket_does_not_cost_the_drain_budget(self):
        """Nothing is in flight on a kept-alive socket between requests:
        shutdown closes it at once (it used to wait the whole 5 s budget and
        log a force-close)."""
        import time

        lines = []
        server = build_serve_stack(
            NetConfig(port=0, block_interval_seconds=0), logger=lines.append)
        thread = ServerThread(server)
        thread.start()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("POST", "/", body=json.dumps(
                {"jsonrpc": "2.0", "id": 1, "method": "eth_blockNumber",
                 "params": []}))
            conn.getresponse().read()
            began = time.perf_counter()
            thread.stop()
            elapsed = time.perf_counter() - began
        finally:
            conn.close()
        assert elapsed < 1.0
        assert not any("force-closed" in line for line in lines)
        assert any("graceful shutdown complete" in line for line in lines)
        assert server.stats.open_connections == 0

    def test_a_connection_mid_request_gets_the_drain_budget(self):
        import time

        lines = []
        server = build_serve_stack(
            NetConfig(port=0, block_interval_seconds=0,
                      drain_timeout_seconds=0.4), logger=lines.append)
        thread = ServerThread(server)
        thread.start()
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
                         + b"x" * 50)
            deadline = time.time() + 5
            while not server.stats.open_connections and time.time() < deadline:
                time.sleep(0.01)
            began = time.perf_counter()
            thread.stop()
            elapsed = time.perf_counter() - began
        assert 0.4 <= elapsed < 3.0
        assert any("force-closed 1 connection(s) after the 0.4s drain budget"
                   in line for line in lines)
        assert server.stats.open_connections == 0

    def test_a_request_finished_during_the_drain_is_answered_then_closed(self):
        import threading
        import time

        server = make_server(drain_timeout_seconds=5.0)
        thread = ServerThread(server)
        thread.start()
        body = json.dumps({"jsonrpc": "2.0", "id": 9, "method": "eth_chainId",
                           "params": []}).encode()
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                         % len(body) + body[:10])
            deadline = time.time() + 5
            while not server.stats.open_connections and time.time() < deadline:
                time.sleep(0.01)
            stopper = threading.Thread(target=thread.stop)
            stopper.start()
            while not server._draining and time.time() < deadline:
                time.sleep(0.01)
            sock.sendall(body[10:])
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
            stopper.join(timeout=10)
        assert not stopper.is_alive()
        assert reply.startswith(b"HTTP/1.1 200 ") and b'"id": 9' in reply
        assert b"Connection: close" in reply

    def test_producer_mines_pending_transactions(self):
        server = make_server(block_interval_seconds=0.02)
        with ServerThread(server):
            port = server.port
            _, fund = post(port, {
                "jsonrpc": "2.0", "id": 1, "method": "dev_fundAccount",
                "params": ["0x" + "22" * 20]})
            assert "result" in fund
            from repro.chain.account import Address
            from repro.chain.keys import KeyPair
            from repro.chain.transaction import Transaction

            keypair = KeyPair.from_label("net-producer-test")
            post(port, {"jsonrpc": "2.0", "id": 2, "method": "dev_fundAccount",
                        "params": [keypair.address]})
            tx = Transaction(sender=Address(keypair.address),
                             to=Address("0x" + "33" * 20), value=1, nonce=0,
                             gas_limit=21_000, gas_price=10**9).sign(keypair)
            _, sent = post(port, {"jsonrpc": "2.0", "id": 3,
                                  "method": "eth_sendRawTransaction",
                                  "params": [tx.serialize_raw()]})
            import time
            deadline = time.time() + 10
            receipt = None
            while time.time() < deadline and not receipt:
                _, reply = post(port, {"jsonrpc": "2.0", "id": 4,
                                       "method": "eth_getTransactionReceipt",
                                       "params": [sent["result"]]})
                receipt = reply.get("result")
                time.sleep(0.02)
            assert receipt, "producer never mined the pending transfer"


class TestShutdownClosesTheStack:
    """``shutdown`` releases what the stack holds (``Stack.close``)."""

    def test_no_verify_worker_outlives_a_batch_verify_server(self):
        import multiprocessing

        from repro.chain.account import Address
        from repro.chain.keys import KeyPair
        from repro.chain.transaction import Transaction

        server = build_serve_stack(
            NetConfig(port=0, block_interval_seconds=0), batch_verify=2)
        with ServerThread(server):
            calls = []
            for index in range(4):
                keypair = KeyPair.from_label(f"net-close-{index}")
                calls.append({"jsonrpc": "2.0", "id": len(calls),
                              "method": "dev_fundAccount",
                              "params": [keypair.address]})
                for nonce in range(10):
                    tx = Transaction(
                        sender=Address(keypair.address),
                        to=Address("0x" + "44" * 20), value=1, nonce=nonce,
                        gas_limit=21_000, gas_price=10**9).sign(keypair)
                    calls.append({"jsonrpc": "2.0", "id": len(calls),
                                  "method": "eth_sendRawTransaction",
                                  "params": [tx.serialize_raw()]})
            _, replies = post(server.port, calls)
            assert all("result" in reply for reply in replies)
            _, mined = post(server.port, {"jsonrpc": "2.0", "id": 1,
                                          "method": "evm_mine", "params": []})
            assert "result" in mined
            stats = server.node.chain.batchverify_stats()
            assert stats["deferred_admissions"] == 40
            assert stats["verify_jobs_offloaded"] > 0  # the pool was started
        assert multiprocessing.active_children() == []

    def test_a_store_server_flushes_its_blob_indexes(self, tmp_path):
        server = build_serve_stack(
            NetConfig(port=0, block_interval_seconds=0), store=str(tmp_path))
        index = tmp_path / "blobs" / "models.idx.json"
        with ServerThread(server):
            post(server.port, {"jsonrpc": "2.0", "id": 1,
                               "method": "eth_blockNumber", "params": []})
            server.gateway.storage.blob_space("models").put("update-0", b"weights")
            assert not index.exists()  # indexes flush lazily
        assert "update-0" in json.loads(index.read_text())


class TestServeStack:
    def test_store_with_cluster_is_rejected(self, tmp_path):
        with pytest.raises(NetworkError):
            build_serve_stack(NetConfig(port=0), cluster=3,
                              store=str(tmp_path))

    def test_cluster_stack_serves_rpc(self):
        server = build_serve_stack(NetConfig(port=0, block_interval_seconds=0),
                                   cluster=3)
        with ServerThread(server):
            status, reply = post(server.port, {
                "jsonrpc": "2.0", "id": 1,
                "method": "eth_blockNumber", "params": []})
        assert status == 200
        assert reply["result"] == "0x0"

    def test_a_server_is_built_over_a_stack_not_a_gateway(self):
        """There is no node-less gateway to refuse any more: the one
        argument is the stack, and the server serves what it holds."""
        from repro.system.stack import build_stack

        stack = build_stack()
        server = RpcHttpServer(stack, NetConfig(port=0))
        assert server.gateway is stack.gateway and server.node is stack.node
        with pytest.raises(TypeError):
            RpcHttpServer()
