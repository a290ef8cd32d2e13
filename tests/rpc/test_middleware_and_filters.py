"""Tests for gateway middleware (metrics, rate limit, allowlist) and filters."""

import pytest

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.chain.account import Address
from repro.chain.transaction import Transaction, encode_call, encode_create
from repro.contracts import default_registry
from repro.errors import RateLimitError
from repro.rpc import (
    METHOD_NOT_ALLOWED,
    RATE_LIMITED,
    JsonRpcGateway,
    MarketplaceClient,
    MethodAllowlist,
    TokenBucketRateLimiter,
    make_request,
)
from repro.utils.clock import SimulatedClock
from repro.utils.units import ether_to_wei

ALICE = KeyPair.from_label("rpc-mw-alice")


def make_gateway(**kwargs):
    node = EthereumNode(backend=default_registry())
    Faucet(node).drip(ALICE.address, ether_to_wei(5))
    return JsonRpcGateway(node=node, **kwargs)


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

    def test_stacked_middleware_counts_every_call(self):
        gateway = make_gateway(middleware=[
            TokenBucketRateLimiter(rate=10_000_000.0),
            MethodAllowlist(["eth_*"]),
        ])
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


class TestRateLimiting:
    def test_bucket_rejects_when_empty_and_refills_with_time(self):
        clock = SimulatedClock()
        limiter = TokenBucketRateLimiter(rate=1.0, capacity=3, time_fn=lambda: clock.now)
        gateway = make_gateway(middleware=[limiter])

        for _ in range(3):
            assert "result" in gateway.handle(make_request("eth_blockNumber"))
        rejected = gateway.handle(make_request("eth_blockNumber"))
        assert rejected["error"]["code"] == RATE_LIMITED
        assert limiter.rejected_total == 1

        clock.advance(2.0)  # 2 tokens refill
        assert "result" in gateway.handle(make_request("eth_blockNumber"))

    def test_client_raises_rate_limit_error(self):
        limiter = TokenBucketRateLimiter(rate=1.0, capacity=1,
                                         time_fn=lambda: 0.0)
        client = MarketplaceClient(make_gateway(middleware=[limiter]))
        assert client.eth.block_number == 0
        with pytest.raises(RateLimitError):
            client.eth.block_number

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            TokenBucketRateLimiter(rate=0)
        with pytest.raises(ValueError):
            TokenBucketRateLimiter(rate=5, capacity=0.5)


class TestAllowlist:
    def test_exact_and_wildcard_entries(self):
        allowlist = MethodAllowlist(["eth_blockNumber", "ipfs_*"])
        assert allowlist.permits("eth_blockNumber")
        assert allowlist.permits("ipfs_cat")
        assert not allowlist.permits("eth_sendRawTransaction")

    def test_gateway_rejects_disallowed_methods(self):
        gateway = make_gateway(middleware=[MethodAllowlist(["eth_blockNumber"])])
        assert "result" in gateway.handle(make_request("eth_blockNumber"))
        rejected = gateway.handle(make_request("eth_getBalance", [ALICE.address]))
        assert rejected["error"]["code"] == METHOD_NOT_ALLOWED


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
        filter_id = client.eth.new_pending_transaction_filter()
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
        history = client.eth.get_filter_logs(filter_id)
        assert [log.args["cid"] for log in history] == ["QmA", "QmB", "QmC"]

    def test_uninstalled_filter_cannot_be_polled(self, client):
        from repro.errors import RpcError

        filter_id = client.eth.new_block_filter()
        assert client.eth.uninstall_filter(filter_id) is True
        assert client.eth.uninstall_filter(filter_id) is False
        with pytest.raises(RpcError):
            client.eth.get_filter_changes(filter_id)
