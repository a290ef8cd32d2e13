"""``repro serve`` as a real process: boot, readiness, SIGTERM drain, and a
restart on the ``--store`` directory it wrote."""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest


def repo_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


def start_serve(*flags):
    """A child ``repro serve --port 0 --block-interval 0 FLAGS``, its port and
    the lines it printed up to "listening on"."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", "0", "--block-interval", "0", *flags],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=repo_env())
    port = None
    deadline = time.time() + 30
    lines = []
    while time.time() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        lines.append(line)
        match = re.search(r"listening on http://127\.0\.0\.1:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        process.kill()
        process.stdout.close()
        pytest.fail("serve never reported a listening port:\n" + "".join(lines))
    return process, port, lines


def stop(process, signum):
    """Send ``signum`` and reap the child; its remaining output."""
    try:
        process.send_signal(signum)
        output, _ = process.communicate(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
        process.stdout.close()
    return output


def rpc(port, method, *params):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", "/", body=json.dumps(
            {"jsonrpc": "2.0", "id": 1, "method": method, "params": list(params)}))
        reply = json.loads(conn.getresponse().read())
    finally:
        conn.close()
    assert "error" not in reply, reply
    return reply["result"]


@pytest.fixture()
def serve_process():
    process, port, _ = start_serve()
    try:
        yield process, port
    finally:
        if process.poll() is None:
            process.kill()
        process.stdout.close()


class TestServeCli:
    def test_boot_serve_and_sigterm_drain(self, serve_process):
        process, port = serve_process

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            health = json.loads(conn.getresponse().read())
            assert health["status"] == "ok"
        finally:
            conn.close()

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request("POST", "/", body=json.dumps(
                {"jsonrpc": "2.0", "id": 1, "method": "eth_chainId",
                 "params": []}))
            reply = json.loads(conn.getresponse().read())
            assert reply["result"] == "0xaa36a7"
        finally:
            conn.close()

        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=30)
        assert process.returncode == 0
        assert "graceful shutdown complete" in output

    @pytest.mark.parametrize("flags", [
        ["--batch-verify", "-1"],
    ])
    def test_a_stack_the_builder_refuses_exits_2_with_one_line(self, flags, capsys):
        from repro.cli import main

        assert main(["serve", "--port", "0", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: batch_verify")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("flags", [
        ["--port", "70000"],
        ["--port", "-5"],
        ["--port", "0", "--read-timeout", "nan"],
        ["--port", "0", "--block-interval", "nan"],
    ])
    def test_a_bad_net_config_exits_2_with_one_line(self, flags):
        """A real process: a value that slips past ``NetConfig`` either
        fails later with a traceback or serves until the timeout kills it."""
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", *flags],
            capture_output=True, text=True, env=repo_env(), timeout=30)
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stdout + result.stderr


class TestServeRestart:
    """A second ``repro serve --store DIR`` reopens what the first wrote."""

    SENDER = "serve-restart-sender"
    SINK = "0x" + "44" * 20

    def transfer(self, nonce):
        from repro.chain.account import Address
        from repro.chain.keys import KeyPair
        from repro.chain.transaction import Transaction

        keypair = KeyPair.from_label(self.SENDER)
        return Transaction(sender=Address(keypair.address), to=Address(self.SINK),
                           value=7, nonce=nonce, gas_limit=21_000,
                           gas_price=10**9).sign(keypair)

    def fund_and_transfer(self, port):
        """Fund the sender, mine one transfer; the served view of both."""
        tx = self.transfer(0)
        rpc(port, "dev_fundAccount", str(tx.sender))
        tx_hash = rpc(port, "eth_sendRawTransaction", tx.serialize_raw())
        rpc(port, "evm_mine")
        return tx_hash, self.view(port, tx_hash)

    def view(self, port, tx_hash):
        return {
            "height": rpc(port, "eth_blockNumber"),
            "balance": rpc(port, "eth_getBalance", self.SINK, "latest"),
            "receipt": rpc(port, "eth_getTransactionReceipt", tx_hash),
        }

    def test_sigterm_then_restart_serves_the_same_chain_and_content(self, tmp_path):
        store = str(tmp_path / "store")
        payload = bytes(range(256)) * 1200  # several chunks: a DAG, not one block
        process, port, _ = start_serve("--store", store)
        try:
            tx_hash, before = self.fund_and_transfer(port)
            cid = rpc(port, "ipfs_add", "0x" + payload.hex())["cid"]
        finally:
            output = stop(process, signal.SIGTERM)
        assert process.returncode == 0 and "graceful shutdown complete" in output
        assert before["receipt"]["status"] == 1

        process, port, lines = start_serve("--store", store)
        try:
            assert self.view(port, tx_hash) == before
            assert rpc(port, "ipfs_cat", cid) == "0x" + payload.hex()
        finally:
            stop(process, signal.SIGTERM)
        height = int(before["height"], 16)
        assert any(f"chain at height {height}, 0 pending" in line for line in lines), lines

    def test_sigkill_keeps_an_acknowledged_transaction(self, tmp_path):
        store = str(tmp_path / "store")
        process, port, _ = start_serve("--store", store)
        try:
            tx_hash, before = self.fund_and_transfer(port)
            acknowledged = rpc(port, "eth_sendRawTransaction",
                               self.transfer(1).serialize_raw())
        finally:
            stop(process, signal.SIGKILL)
        assert process.returncode == -signal.SIGKILL

        process, port, lines = start_serve("--store", store)
        try:
            assert self.view(port, tx_hash) == before
            # Mined or pending: the WAL held it before the reply was sent.
            assert rpc(port, "eth_getTransactionByHash", acknowledged)["hash"] == acknowledged
        finally:
            stop(process, signal.SIGTERM)
        assert any("1 pending transaction(s) re-queued" in line for line in lines), lines
