"""Tests for repro.rpc.protocol (envelopes and error codes) and for how the
gateway validates an envelope before a call runs."""

import json

import pytest

from repro.rpc.gateway import JsonRpcGateway
from repro.rpc.protocol import (
    FILTER_NOT_FOUND,
    INVALID_REQUEST,
    JsonRpcError,
    error_response,
    from_quantity,
    make_request,
    success_response,
    to_quantity,
)


class Seen:
    """A gateway whose handlers record every call that reaches them as
    ``(method, positional params, named params)``."""

    def __init__(self):
        self.calls = []
        self.gateway = JsonRpcGateway()
        for method in ("m", "eth_getBalance", "eth_call"):
            self.gateway.register(method, self.recorder(method))

    def recorder(self, method):
        def handler(*args, **kwargs):
            self.calls.append((method, args, kwargs))

        return handler


class TestRequestValidation:
    def test_valid_request_with_positional_params(self):
        seen = Seen()
        response = seen.gateway.handle(
            {"jsonrpc": "2.0", "id": 7, "method": "eth_getBalance", "params": ["0xabc"]}
        )
        assert seen.calls == [("eth_getBalance", ("0xabc",), {})]
        assert response == {"jsonrpc": "2.0", "id": 7, "result": None}

    def test_named_params(self):
        seen = Seen()
        seen.gateway.handle({"jsonrpc": "2.0", "id": 1, "method": "m", "params": {"a": 1}})
        assert seen.calls == [("m", (), {"a": 1})]

    def test_notification_has_no_id(self):
        seen = Seen()
        assert seen.gateway.handle({"jsonrpc": "2.0", "method": "m"}) is None
        assert seen.calls == [("m", (), {})]
        assert seen.gateway.metrics.requests_total == 1

    @pytest.mark.parametrize(
        "payload",
        [
            "not an object",
            42,
            {"method": "m"},  # missing jsonrpc
            {"jsonrpc": "1.0", "method": "m"},
            {"jsonrpc": "2.0"},  # missing method
            {"jsonrpc": "2.0", "method": ""},
            {"jsonrpc": "2.0", "method": 5},
            {"jsonrpc": "2.0", "method": "m", "params": "scalar"},
            {"jsonrpc": "2.0", "method": "m", "id": {"obj": 1}},
            {"jsonrpc": "2.0", "method": "m", "id": True},
            {"jsonrpc": "2.0", "method": "m", "id": False},
            {"jsonrpc": "2.0", "method": "m", "id": [1]},
        ],
    )
    def test_malformed_envelopes_are_invalid_requests(self, payload):
        seen = Seen()
        assert seen.gateway.handle(payload)["error"]["code"] == INVALID_REQUEST
        assert seen.calls == []
        assert seen.gateway.metrics.requests_total == 0


class TestInvalidIds:
    """An invalid id is refused and answered with a null id (JSON-RPC 2.0
    section 5), never echoed: it may be any size."""

    @pytest.fixture()
    def gateway(self):
        return JsonRpcGateway()

    @pytest.mark.parametrize("bad_id", [True, False, [1], {"id": 1}, ["x" * 10_000]])
    def test_an_invalid_id_is_answered_with_null(self, gateway, bad_id):
        body = json.dumps({"jsonrpc": "2.0", "id": bad_id, "method": "eth_chainId"})
        reply = json.loads(gateway.handle_raw(body))
        assert reply["id"] is None
        assert reply["error"]["code"] == INVALID_REQUEST
        assert reply["error"]["message"] == "id must be a string or a number"

    def test_an_invalid_id_in_a_batch_is_null_beside_valid_ones(self, gateway):
        replies = gateway.handle([
            {"jsonrpc": "2.0", "id": True, "method": "m"},
            {"jsonrpc": "2.0", "id": 7},
        ])
        assert [reply["id"] for reply in replies] == [None, 7]

    @pytest.mark.parametrize("good_id", [0, -1, 2.5, "", "abc", None])
    def test_a_valid_id_is_echoed_in_an_invalid_request(self, gateway, good_id):
        reply = gateway.handle({"jsonrpc": "1.0", "id": good_id, "method": "m"})
        assert reply["id"] == good_id
        assert reply["error"]["code"] == INVALID_REQUEST


class TestEnvelopes:
    def test_success_response_shape(self):
        assert success_response(3, "ok") == {"jsonrpc": "2.0", "id": 3, "result": "ok"}

    def test_error_response_shape(self):
        response = error_response(None, -32601, "nope", data={"x": 1})
        assert response["id"] is None
        assert response["error"] == {"code": -32601, "message": "nope", "data": {"x": 1}}

    def test_make_request_round_trips_through_the_gateway(self):
        seen = Seen()
        response = seen.gateway.handle(make_request("eth_call", [{"to": "0xabc"}], request_id=9))
        assert seen.calls == [("eth_call", ({"to": "0xabc"},), {})]
        assert response["id"] == 9


class TestJsonRpcError:
    def test_message_defaults_to_the_code_name(self):
        error = JsonRpcError(FILTER_NOT_FOUND)
        assert error.to_error_object() == {"code": FILTER_NOT_FOUND,
                                           "message": "Filter not found"}
        assert str(error) == f"[{FILTER_NOT_FOUND}] Filter not found"

    def test_unknown_code_falls_back_to_server_error(self):
        assert JsonRpcError(-32099).message == "Server error"

    def test_data_member_only_when_given(self):
        error = JsonRpcError(INVALID_REQUEST, "bad", data={"field": "id"})
        assert error.to_error_object() == {"code": INVALID_REQUEST, "message": "bad",
                                           "data": {"field": "id"}}
        assert error.to_error_object() == error_response(None, INVALID_REQUEST, "bad",
                                                         data={"field": "id"})["error"]


class TestQuantities:
    def test_round_trip(self):
        assert from_quantity(to_quantity(11155111)) == 11155111
        assert to_quantity(0) == "0x0"

    def test_integers_pass_through(self):
        assert from_quantity(42) == 42

    def test_rejects_non_hex(self):
        with pytest.raises(ValueError):
            from_quantity("123")
