"""The gateway's reply cache: what ``handle_raw`` keeps, and how it is counted.

A kept reply is the result text of a cacheable ``eth_*`` read, keyed by
method and params and valid for one version of the served node.  A hit is
still a call, so the gateway's request metrics count every one.
(``tests/property/test_property_reply_cache.py`` holds cached replies to the
cold ones over random write schedules.)
"""

import copy
import json

import pytest

from repro.chain.account import Address
from repro.chain.keys import KeyPair, Signature
from repro.chain.transaction import Transaction
from repro.net import NetConfig, build_serve_stack
from repro.rpc.gateway import CACHED_READS, REPLY_CACHE_ENTRIES, REPLY_CACHE_MAX_BYTES
from repro.system.stack import build_stack
from repro.utils.serialization import reply_json
from tests.oracles import rpc_call

KEYS = KeyPair.from_label("reply-cache-unit")
SINK = "0x" + "6d" * 20


def call(method, params, request_id=1):
    return {"jsonrpc": "2.0", "id": request_id, "method": method, "params": params}


def raw(gateway, payload):
    return json.loads(gateway.handle_raw(json.dumps(payload)))


def value_of(registry, name, **labels):
    [row] = [row for row in registry.snapshot()[name]["series"]
             if row["labels"] == labels]
    return row["value"]


def transfer(stack, nonce):
    tx = Transaction(sender=Address(KEYS.address), to=Address(SINK), value=1,
                     nonce=nonce, gas_limit=21_000, gas_price=10**9).sign(KEYS)
    return call("eth_sendRawTransaction", [tx.serialize_raw()], 99)


@pytest.fixture()
def stack():
    stack = build_serve_stack(NetConfig(port=0)).stack
    stack.faucet.drip(KEYS.address, 10**18)
    return stack


BALANCE = call("eth_getBalance", [KEYS.address, "latest"])


class TestWhatIsKept:
    def test_the_request_id_is_not_part_of_the_key(self, stack):
        replies = stack.gateway.replies
        answers = [raw(stack.gateway, call("eth_getBalance", [KEYS.address, "latest"],
                                           request_id))
                   for request_id in (1, "two", 3.5)]
        assert [answer["id"] for answer in answers] == [1, "two", 3.5]
        assert len({answer["result"] for answer in answers}) == 1
        assert (replies.misses, replies.hits, len(replies)) == (1, 2, 1)

    def test_other_params_are_other_entries(self, stack):
        raw(stack.gateway, BALANCE)
        raw(stack.gateway, call("eth_getBalance", [SINK, "latest"]))
        raw(stack.gateway, call("eth_getBalance", [KEYS.address]))
        assert len(stack.gateway.replies) == 3

    def test_an_error_reply_is_never_kept(self, stack):
        unknown = call("eth_getTransactionByHash", ["0x" + "00" * 32])
        for _ in range(2):
            assert raw(stack.gateway, unknown)["error"]["code"] == -32000
        assert (stack.gateway.replies.puts, stack.gateway.replies.hits) == (0, 0)

    @pytest.mark.parametrize("payload", [
        call("eth_call", [{"to": SINK, "data": "0x"}]),
        call("eth_estimateGas", [{"from": SINK, "to": SINK}]),
        call("eth_newBlockFilter", []),
        call("ipfs_cat", ["bafy-missing"]),
        call("net_serverStatus", []),
    ])
    def test_calls_off_the_whitelist_never_touch_it(self, stack, payload):
        assert payload["method"] not in CACHED_READS
        for _ in range(2):
            stack.gateway.handle_raw(json.dumps(payload))
        replies = stack.gateway.replies
        assert (replies.hits, replies.misses, replies.puts) == (0, 0, 0)

    def test_in_process_dispatch_never_touches_it(self, stack):
        for _ in range(3):
            stack.gateway.handle(BALANCE)
        rpc_call(stack.gateway, "eth_blockNumber")
        replies = stack.gateway.replies
        assert (replies.hits, replies.misses, replies.puts) == (0, 0, 0)

    def test_a_reply_over_the_byte_bound_is_not_kept(self, stack):
        stack.gateway.register("eth_chainId", lambda: "x" * REPLY_CACHE_MAX_BYTES)
        for _ in range(2):
            assert len(raw(stack.gateway, call("eth_chainId", []))["result"]) \
                == REPLY_CACHE_MAX_BYTES
        assert stack.gateway.replies.puts == 0

    def test_params_count_toward_the_byte_bound(self, stack):
        wide = call("eth_getLogs", [{"arg_filters": {"x": "y" * REPLY_CACHE_MAX_BYTES}}])
        for _ in range(2):
            assert raw(stack.gateway, wide)["result"] == []
        assert stack.gateway.replies.puts == 0

    def test_params_nested_as_deep_as_the_parser_allows_still_answer(self, stack):
        """Rendering the key recurses too; near the parser's limit it gives
        up on the cache, not on the call."""
        for depth in range(900, 1000, 2):
            body = ('{"jsonrpc": "2.0", "id": 1, "method": "eth_getLogs", '
                    '"params": [{"arg_filters": {"x": %s%s}}]}' % ("[" * depth, "]" * depth))
            reply = json.loads(stack.gateway.handle_raw(body))
            assert reply.get("result") == [] or reply["error"]["code"] == -32700

    def test_the_entry_bound_evicts_the_least_recent(self, stack):
        for index in range(REPLY_CACHE_ENTRIES + 10):
            raw(stack.gateway, call("eth_getBalance", ["0x%040x" % index, "latest"]))
        replies = stack.gateway.replies
        assert (len(replies), replies.evictions) == (REPLY_CACHE_ENTRIES, 10)
        assert replies.version_clears == 0

    def test_a_registration_drops_every_kept_reply(self, stack):
        raw(stack.gateway, BALANCE)
        stack.gateway.register("eth_getBalance", lambda address, block="latest": "0x0")
        assert raw(stack.gateway, BALANCE)["result"] == "0x0"

    def test_reads_batched_after_a_write_see_the_write(self, stack):
        pending = call("eth_getTransactionCount", [KEYS.address, "pending"], 2)
        assert raw(stack.gateway, pending)["result"] == "0x0"
        replies = raw(stack.gateway, [transfer(stack, 0), pending])
        assert "result" in replies[0] and replies[1]["result"] == "0x1"

    def test_a_hit_is_byte_equal_to_a_cold_rendering(self, stack):
        stack.node.mine(1)
        block = call("eth_getBlockByNumber", ["latest", True], 5)
        first = stack.gateway.handle_raw(json.dumps(block))
        assert stack.gateway.handle_raw(json.dumps(block)) == first \
            == reply_json(stack.gateway.handle(block)).encode()
        assert stack.gateway.replies.hits == 1


class TestEveryMutationIsSeen:
    """Mutations that draw a version with no block or add after them."""

    def test_a_rewind_drops_the_kept_head_and_receipt(self, stack):
        chain = stack.node.chain
        height, state = chain.height, copy.deepcopy(chain.state)
        tx_hash = raw(stack.gateway, transfer(stack, 0))["result"]
        stack.node.mine(1)
        head = call("eth_blockNumber", [])
        receipt = call("eth_getTransactionReceipt", [tx_hash])
        assert int(raw(stack.gateway, head)["result"], 16) == height + 1
        assert raw(stack.gateway, receipt)["result"]["status"] == 1
        chain.rewind(height, state)
        assert int(raw(stack.gateway, head)["result"], 16) == height
        assert raw(stack.gateway, receipt)["result"] is None

    def test_an_eviction_without_a_block_drops_the_kept_pending_transaction(self):
        stack = build_stack(batch_verify=0)
        stack.faucet.drip(KEYS.address, 10**18)
        forged = Transaction(sender=Address(KEYS.address), to=Address(SINK), value=1,
                             nonce=0, gas_limit=21_000, gas_price=10**9).sign(KEYS)
        good = forged.signature
        forged.signature = Signature(e=good.e, s=good.s ^ 1, public_key=good.public_key)
        chain = stack.node.chain
        chain.submit_transaction(forged)
        lookup = call("eth_getTransactionByHash", [forged.hash_hex])
        assert raw(stack.gateway, lookup)["result"]["hash"] == forged.hash_hex
        assert chain.produce_blocks_until_empty() == []
        assert raw(stack.gateway, lookup)["error"]["code"] == -32000


class TestCounted:
    def test_n_identical_reads_are_n_requests_and_n_minus_one_hits(self, stack):
        for request_id in range(10):
            raw(stack.gateway, call("eth_getBalance", [KEYS.address, "latest"], request_id))
        registry = stack.registry
        assert value_of(registry, "repro_rpc_requests_total", method="eth_getBalance") == 10
        assert value_of(registry, "repro_cache_hits_total", cache="rpc_reply") >= 9

    def test_a_write_between_two_reads_counts_one_version_clear(self, stack):
        raw(stack.gateway, BALANCE)
        raw(stack.gateway, call("dev_fundAccount", [KEYS.address]))
        after = raw(stack.gateway, BALANCE)
        assert int(after["result"], 16) == 10**18 + 10**18
        assert value_of(stack.registry, "repro_cache_version_clears_total",
                        cache="rpc_reply") == 1
        assert value_of(stack.registry, "repro_cache_evictions_total",
                        cache="rpc_reply") == 0

    def test_a_batch_counts_per_call(self, stack):
        replies = raw(stack.gateway, [call("eth_getBalance", [KEYS.address, "latest"], index)
                                      for index in range(6)])
        assert len(replies) == 6
        assert value_of(stack.registry, "repro_rpc_requests_total",
                        method="eth_getBalance") == 6
        assert value_of(stack.registry, "repro_cache_hits_total", cache="rpc_reply") == 5

    def test_every_call_and_every_cache_hit_is_counted(self, stack):
        replies = [raw(stack.gateway, call("eth_blockNumber", [], index))
                   for index in range(3)]
        assert [reply["id"] for reply in replies] == [0, 1, 2]
        assert all("result" in reply for reply in replies)
        assert stack.gateway.replies.hits == 2
        counted = stack.gateway.metrics.snapshot(include_latency=False)
        assert (counted["requests_total"], counted["errors_total"]) == (3, 0)
        assert counted["by_method"] == {"eth_blockNumber": 3}

    def test_obs_cache_stats_reports_it(self):
        observed = build_stack(observability=True)
        raw(observed.gateway, call("eth_chainId", []))
        raw(observed.gateway, call("eth_chainId", []))
        stats = rpc_call(observed.gateway, "obs_cacheStats")["rpc_reply"]
        assert (stats["hits"], stats["misses"], stats["capacity"]) == \
            (1, 1, REPLY_CACHE_ENTRIES)
        assert stats["version_clears"] == 0
