"""The chain path and the served stack import nothing of the marketplace.

Two fresh interpreters each run one path end to end and report which of
:data:`NEVER_RUN` their ``sys.modules`` holds.  numpy alone is ~13.7 MB of
resident memory on a 2-CPU box, a third of an in-process ingest run's peak.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: What neither path runs: the numeric stack and the marketplace layers.
NEVER_RUN = ("numpy", "scipy", "repro.ml", "repro.fl", "repro.data", "repro.web")

REPORT = (
    "import json, sys\n"
    f"roots = {NEVER_RUN!r}\n"
    "print(json.dumps(sorted(name for name in sys.modules if any(\n"
    "    name == root or name.startswith(root + '.') for root in roots))))\n")

CHAIN_PATH = (
    "from repro.loadgen import presigned_transfers\n"
    "node, transfers = presigned_transfers(60, 4, 'import-budget')\n"
    "for tx in transfers:\n"
    "    node.chain.submit_transaction(tx)\n"
    "node.chain.produce_blocks_until_empty(max_blocks=10)\n"
    "assert all(node.chain.has_receipt(tx.hash_hex) for tx in transfers)\n")

SERVED_STACK = (
    "import json\n"
    "from repro.net import NetConfig, build_serve_stack\n"
    "server = build_serve_stack(NetConfig(port=0))\n"
    "reply = server.gateway.handle_raw(json.dumps("
    "{'jsonrpc': '2.0', 'id': 1, 'method': 'eth_chainId', 'params': []}))\n"
    "assert json.loads(reply)['result'], reply\n"
    "server.stack.close()\n")


@pytest.mark.parametrize("code", [CHAIN_PATH, SERVED_STACK], ids=["chain", "served"])
def test_the_path_loads_nothing_it_never_runs(code):
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code + REPORT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1]) == []
