"""Tests for the JSON-RPC gateway: dispatch, batches and the eth_* namespace.

Covers the protocol edge cases the gateway must get right: malformed
envelopes (-32700 / -32600), unknown methods (-32601), bad params (-32602),
batches with mixed success/failure, and notifications.
"""

import json

import pytest

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.chain.account import Address
from repro.chain.events import LogFilter
from repro.chain.transaction import Transaction, encode_call, encode_create
from repro.contracts import default_registry
from repro.rpc import (
    INTERNAL_ERROR,
    INVALID_PARAMS,
    INVALID_REQUEST,
    METHOD_NOT_FOUND,
    PARSE_ERROR,
    SERVER_ERROR,
    JsonRpcGateway,
    from_quantity,
    make_request,
)
from repro.utils.units import ether_to_wei

ALICE = KeyPair.from_label("rpc-gw-alice")
BOB = KeyPair.from_label("rpc-gw-bob")


@pytest.fixture()
def gateway():
    node = EthereumNode(backend=default_registry())
    faucet = Faucet(node)
    faucet.drip(ALICE.address, ether_to_wei(5))
    faucet.drip(BOB.address, ether_to_wei(1))
    return JsonRpcGateway(node=node)


def signed_transfer(gateway, value=1000, nonce=None):
    """A signed ALICE -> BOB value transfer against the gateway's node."""
    node = gateway.eth.node
    tx = Transaction(
        sender=Address(ALICE.address),
        to=Address(BOB.address),
        value=value,
        nonce=nonce if nonce is not None else node.pending_nonce(ALICE.address),
        gas_limit=30_000,
        gas_price=10**9,
    )
    return tx.sign(ALICE)


class TestEnvelopeErrors:
    def test_malformed_json_is_parse_error(self, gateway):
        response = json.loads(gateway.handle_raw("{this is not json"))
        assert response["error"]["code"] == PARSE_ERROR
        assert response["id"] is None

    def test_non_object_request_is_invalid_request(self, gateway):
        response = gateway.handle("just a string")
        assert response["error"]["code"] == INVALID_REQUEST

    def test_missing_jsonrpc_member_is_invalid_request(self, gateway):
        response = gateway.handle({"id": 1, "method": "eth_blockNumber"})
        assert response["error"]["code"] == INVALID_REQUEST

    def test_unknown_method_is_method_not_found(self, gateway):
        response = gateway.handle(make_request("eth_selfDestruct"))
        assert response["error"]["code"] == METHOD_NOT_FOUND

    def test_wrong_arity_is_invalid_params(self, gateway):
        response = gateway.handle(make_request("eth_getBalance"))
        assert response["error"]["code"] == INVALID_PARAMS

    def test_unknown_named_param_is_invalid_params(self, gateway):
        response = gateway.handle(
            make_request("eth_blockNumber", {"bogus_kwarg": 1})
        )
        assert response["error"]["code"] == INVALID_PARAMS

    def test_library_errors_become_server_errors_with_class(self, gateway):
        # Sending garbage raw bytes trips InvalidTransactionError inside.
        response = gateway.handle(make_request("eth_sendRawTransaction", ["0x00"]))
        assert response["error"]["code"] == SERVER_ERROR
        assert response["error"]["data"]["error_class"] == "InvalidTransactionError"

    def test_unexpected_exception_is_internal_error(self, gateway):
        gateway.register("boom", lambda: 1 / 0)
        response = gateway.handle(make_request("boom"))
        assert response["error"]["code"] == INTERNAL_ERROR


class TestBatches:
    def test_empty_batch_is_invalid_request(self, gateway):
        response = gateway.handle([])
        assert response["error"]["code"] == INVALID_REQUEST

    def test_mixed_success_and_failure_preserves_order_and_ids(self, gateway):
        batch = [
            make_request("eth_blockNumber", request_id=1),
            make_request("eth_noSuchThing", request_id=2),
            make_request("eth_getBalance", request_id=3),  # bad params
            make_request("eth_getBalance", [ALICE.address], request_id=4),
        ]
        responses = gateway.handle(batch)
        assert [entry["id"] for entry in responses] == [1, 2, 3, 4]
        assert responses[0]["result"] == "0x0"
        assert responses[1]["error"]["code"] == METHOD_NOT_FOUND
        assert responses[2]["error"]["code"] == INVALID_PARAMS
        assert from_quantity(responses[3]["result"]) == ether_to_wei(5)

    def test_notifications_produce_no_response_entries(self, gateway):
        batch = [
            {"jsonrpc": "2.0", "method": "eth_blockNumber"},  # notification
            make_request("eth_chainId", request_id=2),
        ]
        responses = gateway.handle(batch)
        assert len(responses) == 1
        assert responses[0]["id"] == 2

    def test_all_notification_batch_returns_none(self, gateway):
        assert gateway.handle([{"jsonrpc": "2.0", "method": "eth_blockNumber"}]) is None
        assert gateway.handle_raw('[{"jsonrpc": "2.0", "method": "eth_blockNumber"}]') == ""

    def test_malformed_entry_inside_batch_gets_null_id_error(self, gateway):
        responses = gateway.handle(["garbage", make_request("eth_chainId", request_id=1)])
        assert responses[0]["error"]["code"] == INVALID_REQUEST
        assert responses[0]["id"] is None
        assert responses[1]["result"] == "0xaa36a7"


class TestEthNamespace:
    def test_block_number_balance_and_nonce(self, gateway):
        assert gateway.call("eth_blockNumber") == "0x0"
        assert from_quantity(gateway.call("eth_getBalance", ALICE.address)) == ether_to_wei(5)
        assert gateway.call("eth_getTransactionCount", ALICE.address, "latest") == "0x0"

    def test_send_raw_transaction_and_receipt_lifecycle(self, gateway):
        tx = signed_transfer(gateway)
        tx_hash = gateway.call("eth_sendRawTransaction", tx.serialize_raw())
        assert tx_hash == tx.hash_hex
        assert gateway.call("eth_getTransactionReceipt", tx_hash) is None  # unmined
        assert gateway.call("eth_getTransactionCount", ALICE.address, "pending") == "0x1"
        gateway.call("evm_mine", 1)
        receipt = gateway.call("eth_getTransactionReceipt", tx_hash)
        assert receipt["status"] == 1
        assert receipt["gas_used"] >= 21_000

    def test_get_block_by_number_with_transaction_hashes(self, gateway):
        tx = signed_transfer(gateway)
        gateway.call("eth_sendRawTransaction", tx.serialize_raw())
        gateway.call("evm_mine")
        block = gateway.call("eth_getBlockByNumber", "latest")
        assert block["transactions"] == [tx.hash_hex]

    def test_estimate_gas_matches_node(self, gateway):
        tx = signed_transfer(gateway)
        estimated = from_quantity(gateway.call("eth_estimateGas", tx.to_dict()))
        assert estimated == gateway.eth.node.estimate_gas(tx)

    def test_call_and_logs_against_a_contract(self, gateway):
        node = gateway.eth.node
        deploy = Transaction(
            sender=Address(ALICE.address), to=None,
            data=encode_create("CidStorage", []),
            nonce=node.pending_nonce(ALICE.address),
            gas_limit=3_000_000, gas_price=10**9,
        ).sign(ALICE)
        gateway.call("eth_sendRawTransaction", deploy.serialize_raw())
        gateway.call("evm_mine")
        contract = gateway.call("eth_getTransactionReceipt", deploy.hash_hex)["contract_address"]

        upload = Transaction(
            sender=Address(ALICE.address), to=Address(contract),
            data=encode_call("uploadCid", ["QmGateway"]),
            nonce=node.pending_nonce(ALICE.address),
            gas_limit=1_000_000, gas_price=10**9,
        ).sign(ALICE)
        gateway.call("eth_sendRawTransaction", upload.serialize_raw())
        gateway.call("evm_mine")

        from repro.chain.transaction import encode_call as enc
        from repro.utils.encoding import to_hex
        result = gateway.call(
            "eth_call", {"to": contract, "data": to_hex(enc("getAllCids", []))}
        )
        assert result == ["QmGateway"]
        logs = gateway.call("eth_getLogs", {"address": contract, "event": "CidUploaded"})
        assert len(logs) == 1
        assert logs[0]["args"]["cid"] == "QmGateway"

    def test_get_logs_pagination_via_cursor(self, gateway):
        node = gateway.eth.node
        deploy = Transaction(
            sender=Address(ALICE.address), to=None,
            data=encode_create("CidStorage", []),
            nonce=node.pending_nonce(ALICE.address),
            gas_limit=3_000_000, gas_price=10**9,
        ).sign(ALICE)
        gateway.call("eth_sendRawTransaction", deploy.serialize_raw())
        gateway.call("evm_mine")
        contract = gateway.call("eth_getTransactionReceipt", deploy.hash_hex)["contract_address"]
        for index in range(5):
            tx = Transaction(
                sender=Address(ALICE.address), to=Address(contract),
                data=encode_call("uploadCid", [f"Qm{index}"]),
                nonce=node.pending_nonce(ALICE.address),
                gas_limit=1_000_000, gas_price=10**9,
            ).sign(ALICE)
            gateway.call("eth_sendRawTransaction", tx.serialize_raw())
        gateway.call("evm_mine")

        collected, cursor, pages = [], None, 0
        while True:
            criteria = {"event": "CidUploaded", "limit": 2}
            if cursor is not None:
                criteria["cursor"] = cursor
            page = gateway.call("eth_getLogs", criteria)
            collected.extend(log["args"]["cid"] for log in page["logs"])
            pages += 1
            cursor = page["next_cursor"]
            if cursor is None:
                break
        assert collected == [f"Qm{i}" for i in range(5)]
        assert pages >= 3


class TestBlockParams:
    """Block numbers in ``eth_getBlockByNumber`` and in log criteria: every
    value that parsed before tags were accepted there parses to the same
    number; a malformed one is a ``-32602`` naming its field, never a
    ``-32603``."""

    HEIGHT = 3

    @pytest.fixture()
    def mined(self, gateway):
        gateway.call("evm_mine", self.HEIGHT)
        return gateway

    @pytest.mark.parametrize("field, value, expected", [
        # What int() made of from_block / to_block before, unchanged:
        ("from_block", 2, 2), ("from_block", "2", 2), ("from_block", 2.0, 2),
        ("to_block", 2, 2), ("to_block", "2", 2), ("to_block", None, None),
        # Newly accepted: quantities and tags.
        ("from_block", "0x2", 2), ("from_block", "latest", HEIGHT),
        ("from_block", "earliest", 0), ("from_block", None, 0),
        ("to_block", "0x2", 2), ("to_block", "earliest", 0),
        ("to_block", "latest", None), ("to_block", "pending", None),
    ])
    def test_a_bound_parses_to_its_height(self, mined, field, value, expected):
        from repro.rpc.namespaces import _log_filter_from_params

        log_filter = _log_filter_from_params(mined.eth.node, {field: value})
        assert getattr(log_filter, field) == expected

    @pytest.mark.parametrize("criteria, message", [
        ({"from_block": "abc"}, "unknown from_block tag 'abc'"),
        ({"from_block": "0xzz"}, "unknown from_block tag '0xzz'"),
        ({"from_block": True}, "unknown from_block tag True"),
        ({"from_block": []}, "unknown from_block tag []"),
        ({"to_block": "0x"}, "unknown to_block tag '0x'"),
        ({"to_block": False}, "unknown to_block tag False"),
        ({"to_block": {}}, "unknown to_block tag {}"),
        ({"arg_filters": 5}, "arg_filters must be an object"),
        ({"arg_filters": [["cid", "Qm"]]}, "arg_filters must be an object"),
        ([["from_block", 1]], "log filter criteria must be an object"),
        ([], "log filter criteria must be an object"),
        ("latest", "log filter criteria must be an object"),
    ])
    @pytest.mark.parametrize("method", ["eth_getLogs", "eth_newFilter"])
    def test_malformed_criteria_are_invalid_params(self, mined, method, criteria, message):
        response = mined.handle(make_request(method, [criteria]))
        assert response["error"] == {"code": INVALID_PARAMS, "message": message}

    @pytest.mark.parametrize("block, height", [
        (None, HEIGHT), ("latest", HEIGHT), (2, 2), ("0x2", 2), ("earliest", 0),
    ])
    def test_get_block_by_number_reads_the_block_named(self, mined, block, height):
        assert mined.call("eth_getBlockByNumber", block)["header"]["number"] == height

    @pytest.mark.parametrize("block, message", [
        ("0xzz", "unknown block tag '0xzz'"),
        (True, "unknown block tag True"),  # read block 1 before
        ("head", "unknown block tag 'head'"),
    ])
    def test_get_block_by_number_refuses_a_malformed_block(self, mined, block, message):
        response = mined.handle(make_request("eth_getBlockByNumber", [block]))
        assert response["error"] == {"code": INVALID_PARAMS, "message": message}

    def test_tagged_bounds_select_the_logs_numbered_ones_do(self):
        node = EthereumNode(backend=default_registry())
        Faucet(node).drip(ALICE.address, ether_to_wei(5))
        contract = str(node.wait_for_receipt(
            node.deploy_contract(ALICE, "CidStorage", [])).contract_address)
        for index in range(3):
            node.wait_for_receipt(
                node.transact_contract(ALICE, contract, "uploadCid", [f"Qm{index}"]))
        gateway, head = JsonRpcGateway(node=node), node.block_number
        every = gateway.call("eth_getLogs", {"from_block": "0x0", "to_block": "latest"})
        assert [log["args"]["cid"] for log in every] == ["Qm0", "Qm1", "Qm2"]
        assert every == gateway.call("eth_getLogs", {"from_block": 0, "to_block": head})
        assert gateway.call("eth_getLogs", {"from_block": "latest"}) == every[-1:]


class TestParallelStatus:
    def test_default_node_reports_disabled_and_no_counters(self, gateway):
        assert gateway.call("parallel_status") == {
            "batch_verify": {"enabled": False}}

    def test_deferred_verify_counters_move_after_one_block(self, gateway):
        gateway.eth.node.chain.enable_batch_verify(0)
        before = gateway.call("parallel_status")["batch_verify"]
        assert before["enabled"] is True
        assert (before["deferred_admissions"], before["blocks_settled"]) == (0, 0)
        gateway.call("eth_sendRawTransaction",
                     signed_transfer(gateway).serialize_raw())
        gateway.call("evm_mine", 1)
        after = gateway.call("parallel_status")["batch_verify"]
        assert (after["deferred_admissions"], after["blocks_settled"]) == (1, 1)
        assert after["deferred_rejections"] == 0


class TestNodeLevelPagination:
    """The satellite: EthereumNode.get_logs / Explorer pagination."""

    @pytest.fixture()
    def busy_node(self):
        node = EthereumNode(backend=default_registry())
        Faucet(node).drip(ALICE.address, ether_to_wei(5))
        receipt = node.wait_for_receipt(node.deploy_contract(ALICE, "CidStorage", []))
        contract = str(receipt.contract_address)
        for index in range(7):
            node.wait_for_receipt(
                node.transact_contract(ALICE, contract, "uploadCid", [f"Qm{index}"]))
        return node, contract

    def test_get_logs_limit_truncates(self, busy_node):
        node, contract = busy_node
        log_filter = LogFilter(event_name="CidUploaded")
        assert len(node.get_logs(log_filter)) == 7
        assert len(node.get_logs(log_filter, limit=3)) == 3

    def test_get_logs_page_walks_the_stream(self, busy_node):
        node, contract = busy_node
        log_filter = LogFilter(event_name="CidUploaded")
        seen, cursor = [], None
        while True:
            page = node.get_logs_page(log_filter, limit=3, cursor=cursor)
            seen.extend(log.args["cid"] for log in page.logs)
            if page.next_cursor is None:
                break
            cursor = page.next_cursor
        assert seen == [f"Qm{i}" for i in range(7)]

    def test_cursor_survives_chain_growth(self, busy_node):
        node, contract = busy_node
        log_filter = LogFilter(event_name="CidUploaded")
        page = node.get_logs_page(log_filter, limit=2)
        node.wait_for_receipt(
            node.transact_contract(ALICE, contract, "uploadCid", ["QmLate"]))
        rest = node.get_logs_page(log_filter, cursor=page.next_cursor)
        assert [log.args["cid"] for log in page.logs] == ["Qm0", "Qm1"]
        assert [log.args["cid"] for log in rest.logs][-1] == "QmLate"

    def test_malformed_cursor_rejected(self, busy_node):
        node, _ = busy_node
        with pytest.raises(ValueError):
            node.get_logs_page(cursor="not-a-cursor")

    def test_explorer_records_page(self, busy_node):
        node, _ = busy_node
        from repro.chain.explorer import Explorer

        explorer = Explorer(node.chain)
        total = len(explorer.all_records())
        seen, cursor = 0, None
        while True:
            page, cursor = explorer.records_page(limit=3, cursor=cursor)
            seen += len(page)
            if cursor is None:
                break
        assert seen == total

    def test_explorer_records_page_by_address(self, busy_node):
        node, contract = busy_node
        from repro.chain.explorer import Explorer

        explorer = Explorer(node.chain)
        page, _ = explorer.records_page(address=contract, limit=100)
        assert page and all(
            str(record.transaction.to) == contract for record in page
        )
