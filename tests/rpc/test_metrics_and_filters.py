"""Tests for the gateway's request metrics and for filters."""

import pytest

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.chain.account import Address
from repro.chain.transaction import Transaction, encode_call, encode_create
from repro.contracts import default_registry
from repro.errors import WebError
from repro.rpc import (
    INTERNAL_ERROR,
    INVALID_REQUEST,
    METHOD_NOT_FOUND,
    SERVER_ERROR,
    JsonRpcError,
    JsonRpcGateway,
    MarketplaceClient,
    make_request,
)
from repro.rpc.filters import FilterManager, poll_new_blocks, poll_pending_transactions
from repro.utils.units import ether_to_wei
from tests.oracles import rpc_call

ALICE = KeyPair.from_label("rpc-mw-alice")


def make_gateway():
    node = EthereumNode(backend=default_registry())
    Faucet(node).drip(ALICE.address, ether_to_wei(5))
    return JsonRpcGateway(node=node)


class TestRequestMetrics:
    def test_counts_requests_and_errors(self):
        gateway = make_gateway()
        gateway.handle(make_request("eth_blockNumber"))
        gateway.handle(make_request("eth_blockNumber"))
        gateway.handle(make_request("eth_noSuchMethod"))
        snapshot = gateway.metrics.snapshot()
        assert snapshot["requests_total"] == 3
        assert snapshot["errors_total"] == 1
        assert snapshot["by_method"]["eth_blockNumber"] == 2
        assert snapshot["errors_by_code"]["-32601"] == 1

    def test_every_client_call_is_counted(self):
        gateway = make_gateway()
        client = MarketplaceClient(gateway)
        for _ in range(5):
            client.eth.get_balance(ALICE.address)
        snapshot = gateway.metrics.snapshot()
        assert snapshot["errors_total"] == 0
        assert snapshot["by_method"]["eth_getBalance"] == 5

    def test_latency_histogram_observes_every_request(self):
        gateway = make_gateway()
        for _ in range(5):
            gateway.handle(make_request("eth_blockNumber"))
        histogram = gateway.metrics.snapshot()["latency_histogram_ms"]
        assert sum(histogram.values()) == 5

    def test_deterministic_snapshot_excludes_latency(self):
        gateway = make_gateway()
        gateway.handle(make_request("eth_blockNumber"))
        snapshot = gateway.metrics.snapshot(include_latency=False)
        assert "latency_histogram_ms" not in snapshot
        assert "mean_latency_ms" not in snapshot

    def test_top_methods_rank_by_calls_then_name(self):
        gateway = make_gateway()
        for method, calls in [("eth_chainId", 1), ("eth_gasPrice", 2), ("eth_blockNumber", 2)]:
            for _ in range(calls):
                gateway.handle(make_request(method))
        assert gateway.metrics.top_methods(2) == [("eth_blockNumber", 2), ("eth_gasPrice", 2)]
        assert gateway.metrics.top_methods()[-1] == ("eth_chainId", 1)

    def test_attached_gauge_is_sampled_into_every_snapshot(self):
        gateway = make_gateway()
        depth = {"value": 1}
        gateway.metrics.attach_gauge("queue", lambda: dict(depth))
        assert gateway.metrics.snapshot(include_latency=False)["queue"] == {"value": 1}
        depth["value"] = 4
        assert gateway.metrics.snapshot(include_latency=False)["queue"] == {"value": 4}

    def test_an_invalid_envelope_is_answered_but_not_counted(self):
        gateway = make_gateway()
        response = gateway.handle({"jsonrpc": "1.0", "id": 1, "method": "eth_blockNumber"})
        assert response["error"]["code"] == INVALID_REQUEST
        assert gateway.handle(["garbage"])[0]["error"]["code"] == INVALID_REQUEST
        snapshot = gateway.metrics.snapshot()
        assert (snapshot["requests_total"], snapshot["errors_total"]) == (0, 0)
        assert sum(snapshot["latency_histogram_ms"].values()) == 0

    def test_a_notification_is_counted_without_a_reply(self):
        gateway = make_gateway()
        assert gateway.handle({"jsonrpc": "2.0", "method": "eth_blockNumber"}) is None
        assert gateway.handle({"jsonrpc": "2.0", "method": "eth_noSuchMethod"}) is None
        snapshot = gateway.metrics.snapshot(include_latency=False)
        assert snapshot["requests_total"] == 2
        assert snapshot["errors_by_code"] == {"-32601": 1}

    def test_a_batch_counts_each_call_under_its_own_code(self):
        gateway = make_gateway()
        replies = gateway.handle([make_request("eth_blockNumber", request_id=1),
                                  make_request("eth_getBalance", request_id=2),
                                  make_request("eth_noSuchMethod", request_id=3),
                                  "garbage"])
        assert len(replies) == 4
        snapshot = gateway.metrics.snapshot(include_latency=False)
        assert snapshot["requests_total"] == 3
        assert snapshot["by_method"] == {"eth_blockNumber": 1, "eth_getBalance": 1,
                                         "eth_noSuchMethod": 1}
        assert snapshot["errors_by_code"] == {"-32602": 1, "-32601": 1}

    def test_handler_failures_are_counted_under_the_code_they_answer(self):
        gateway = make_gateway()

        def refused():
            raise WebError("refused")

        gateway.register("probe_refused", refused)
        gateway.register("probe_bug", lambda: 1 / 0)
        codes = [gateway.handle(make_request(method))["error"]["code"]
                 for method in ("probe_refused", "probe_bug", "probe_bug")]
        assert codes == [SERVER_ERROR, INTERNAL_ERROR, INTERNAL_ERROR]
        snapshot = gateway.metrics.snapshot(include_latency=False)
        assert snapshot["errors_total"] == 3
        assert snapshot["errors_by_code"] == {str(INTERNAL_ERROR): 2, str(SERVER_ERROR): 1}

    def test_an_in_process_call_is_counted_like_a_wire_call(self):
        gateway = make_gateway()
        assert rpc_call(gateway, "eth_blockNumber") == "0x0"
        with pytest.raises(JsonRpcError) as excinfo:
            rpc_call(gateway, "eth_noSuchMethod")
        assert excinfo.value.code == METHOD_NOT_FOUND
        snapshot = gateway.metrics.snapshot()
        assert (snapshot["requests_total"], snapshot["errors_total"]) == (2, 1)
        assert sum(snapshot["latency_histogram_ms"].values()) == 2


class TestFilters:
    @pytest.fixture()
    def client(self):
        return MarketplaceClient(make_gateway())

    def _deploy_cid_storage(self, client):
        node = client.gateway.eth.node
        deploy = Transaction(
            sender=Address(ALICE.address), to=None,
            data=encode_create("CidStorage", []),
            nonce=node.pending_nonce(ALICE.address),
            gas_limit=3_000_000, gas_price=10**9,
        ).sign(ALICE)
        receipt = client.eth.wait_for_receipt(client.eth.send_transaction(deploy))
        return str(receipt.contract_address)

    def _upload(self, client, contract, cid):
        node = client.gateway.eth.node
        tx = Transaction(
            sender=Address(ALICE.address), to=Address(contract),
            data=encode_call("uploadCid", [cid]),
            nonce=node.pending_nonce(ALICE.address),
            gas_limit=1_000_000, gas_price=10**9,
        ).sign(ALICE)
        return client.eth.send_transaction(tx)

    def test_block_filter_reports_only_new_blocks_per_poll(self, client):
        filter_id = client.eth.new_block_filter()
        assert client.eth.get_filter_changes(filter_id) == []
        client.eth.mine(3)
        first_poll = client.eth.get_filter_changes(filter_id)
        assert len(first_poll) == 3
        assert client.eth.get_filter_changes(filter_id) == []  # drained
        client.eth.mine(1)
        assert len(client.eth.get_filter_changes(filter_id)) == 1

    def test_pending_transaction_filter_sees_mempool_arrivals(self, client):
        contract = self._deploy_cid_storage(client)
        filter_id = client.call("eth_newPendingTransactionFilter")
        tx_hash = self._upload(client, contract, "QmPending")
        assert client.eth.get_filter_changes(filter_id) == [tx_hash]
        assert client.eth.get_filter_changes(filter_id) == []

    def test_log_filter_changes_across_mined_blocks(self, client):
        contract = self._deploy_cid_storage(client)
        from repro.chain.events import LogFilter

        filter_id = client.eth.new_log_filter(LogFilter(event_name="CidUploaded"))
        assert client.eth.get_filter_changes(filter_id) == []

        self._upload(client, contract, "QmA")
        client.eth.mine(1)
        first = client.eth.get_filter_changes(filter_id)
        assert [entry["args"]["cid"] for entry in first] == ["QmA"]

        self._upload(client, contract, "QmB")
        self._upload(client, contract, "QmC")
        client.eth.mine(1)
        second = client.eth.get_filter_changes(filter_id)
        assert [entry["args"]["cid"] for entry in second] == ["QmB", "QmC"]
        assert client.eth.get_filter_changes(filter_id) == []

        # get_filter_logs always returns the full history.
        history = client.call("eth_getFilterLogs", filter_id)
        assert [log["args"]["cid"] for log in history] == ["QmA", "QmB", "QmC"]

    def test_poll_new_blocks_returns_hashes_past_the_cursor(self):
        node = make_gateway().eth.node
        blocks = node.mine(2)
        hashes, tip = poll_new_blocks(node, 0)
        assert hashes == [block.hash for block in blocks]
        assert tip == node.block_number
        assert poll_new_blocks(node, tip) == ([], tip)

    def test_poll_pending_transactions_reads_the_mempool_journal(self):
        node = make_gateway().eth.node
        _, start = poll_pending_transactions(node, 0)
        tx_hash = node.sign_and_send(ALICE, ALICE.address, value=1, gas_price=10**9)
        hashes, cursor = poll_pending_transactions(node, start)
        assert hashes == [tx_hash]
        assert poll_pending_transactions(node, cursor) == ([], cursor)

    def test_filter_manager_uninstall_reports_whether_it_existed(self):
        manager = FilterManager(make_gateway().eth.node)
        filter_id = manager.new_block_filter()
        assert len(manager) == 1
        assert manager.uninstall(filter_id) is True
        assert manager.uninstall(filter_id) is False
        assert len(manager) == 0

    def test_uninstalled_filter_cannot_be_polled(self, client):
        from repro.errors import RpcError

        filter_id = client.eth.new_block_filter()
        assert client.call("eth_uninstallFilter", filter_id) is True
        assert client.call("eth_uninstallFilter", filter_id) is False
        with pytest.raises(RpcError):
            client.eth.get_filter_changes(filter_id)
