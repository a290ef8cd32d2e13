"""``repro serve`` as a real process: boot, readiness, SIGTERM drain."""

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


@pytest.fixture()
def serve_process():
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", "0", "--block-interval", "0"],
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
        pytest.fail("serve never reported a listening port:\n" + "".join(lines))
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
        ["--batch-verify", "0", "--cluster", "2"],
    ])
    def test_a_stack_the_builder_refuses_exits_2_with_one_line(self, flags, capsys):
        from repro.cli import main

        assert main(["serve", "--port", "0", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: batch_verify")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.out + captured.err
