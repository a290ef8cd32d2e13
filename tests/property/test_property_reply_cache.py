"""The reply cache answers exactly what a cold dispatch would.

A derandomised schedule of writes -- ``eth_sendRawTransaction``,
``evm_mine`` and ``dev_fundAccount`` -- runs through
``JsonRpcGateway.handle_raw``.
After every step each cacheable read, sent alone and in one batch, must come
back byte for byte as ``reply_json(gateway.handle(payload))``: the same call
rendered cold, in process, where the cache never answers.  A missing version
bump (a mint or a mempool add that leaves ``Blockchain.version`` alone) lets
a kept reply outlive its answer, and fails here.
"""

import json

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.chain.account import Address
from repro.chain.keys import KeyPair
from repro.chain.transaction import Transaction
from repro.net import NetConfig, build_serve_stack
from repro.utils.serialization import reply_json
from tests.oracles import rpc_call

KEYS = [KeyPair.from_label(f"reply-cache-{index}") for index in range(2)]
SINK = "0x" + "5c" * 20
ADDRESSES = [keys.address for keys in KEYS] + [SINK]

WRITES = ["send0", "send1", "mine", "fund0", "fund1"]


def serve_stack():
    return build_serve_stack(NetConfig(port=0)).stack


def call(method, params, request_id=1):
    return {"jsonrpc": "2.0", "id": request_id, "method": method, "params": params}


def read_calls(hashes):
    calls = [("eth_chainId", []), ("eth_blockNumber", []),
             ("eth_getBlockByNumber", ["latest", False]),
             ("eth_getBlockByNumber", ["latest", True]),
             ("eth_getBlockByNumber", [1, False]),
             ("eth_getLogs", [{}]), ("eth_getLogs", [{"from_block": 0}])]
    for address in ADDRESSES:
        calls += [("eth_getBalance", [address, "latest"]),
                  ("eth_getTransactionCount", [address, "latest"]),
                  ("eth_getTransactionCount", [address, "pending"]),
                  ("eth_getCode", [address])]
    for tx_hash in hashes:
        calls += [("eth_getTransactionByHash", [tx_hash]),
                  ("eth_getTransactionReceipt", [tx_hash])]
    return calls


def assert_reads_match_cold(gateway, hashes):
    calls = read_calls(hashes)
    for index, (method, params) in enumerate(calls):
        payload = call(method, params, index)
        served = gateway.handle_raw(json.dumps(payload))
        cold = reply_json(gateway.handle(payload)).encode()
        assert served == cold, (method, params)
        # Now kept, if it was not already: the hit must match too.
        assert gateway.handle_raw(json.dumps(payload)) == cold, (method, params)
    batch = [call(method, params, index) for index, (method, params) in enumerate(calls)]
    assert gateway.handle_raw(json.dumps(batch)) == reply_json(gateway.handle(batch)).encode()


def write(stack, step, hashes):
    """One write through the wire door; an error reply is a valid outcome."""
    gateway = stack.gateway
    if step.startswith("send"):
        keys = KEYS[int(step[-1])]
        nonce = int(rpc_call(gateway, "eth_getTransactionCount", keys.address, "pending"), 16)
        tx = Transaction(sender=Address(keys.address), to=Address(SINK), value=1,
                         nonce=nonce, gas_limit=21_000, gas_price=10**9).sign(keys)
        reply = json.loads(gateway.handle_raw(json.dumps(
            call("eth_sendRawTransaction", [tx.serialize_raw()]))))
        if "result" in reply:
            hashes.append(reply["result"])
    elif step == "mine":
        gateway.handle_raw(json.dumps(call("evm_mine", [1])))
    elif step.startswith("fund"):
        gateway.handle_raw(json.dumps(call("dev_fundAccount", [KEYS[int(step[-1])].address])))


def run_schedule(stack, steps):
    gateway, hashes = stack.gateway, []
    assert_reads_match_cold(gateway, hashes)
    for step in steps:
        write(stack, step, hashes)
        assert_reads_match_cold(gateway, hashes)
    assert gateway.replies.hits > 0


SETTINGS = settings(max_examples=12, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

SCHEDULES = st.lists(st.sampled_from(WRITES), max_size=8)


@SETTINGS
@given(steps=SCHEDULES)
@example(steps=["fund0", "send0", "mine", "fund1"])
@example(steps=["send1", "send1", "mine", "mine"])
def test_single_node_cached_reads_equal_cold_ones(steps):
    run_schedule(serve_stack(), steps)

