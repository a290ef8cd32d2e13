"""The gateway's arity table: it admits exactly what ``Signature.bind`` admits.

``JsonRpcGateway._invoke`` checks params against a record read off each
handler's signature at ``register()``; ``Signature.bind`` runs only to word
the ``-32602`` of a call the table refuses, or for a signature the table
cannot express.  These tests hold the table to ``bind`` over generated
signatures and params, and the refusals to the bytes the gateway sent when
``bind`` judged every call.
"""

import contextlib
import inspect
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import EthereumNode
from repro.contracts import default_registry
from repro.rpc import INVALID_PARAMS, JsonRpcGateway, make_request

NAMES = ("a", "b", "c", "d")
UNKNOWN = ("bogus", "e")


@pytest.fixture()
def gateway():
    return JsonRpcGateway(node=EthereumNode(backend=default_registry()))


@contextlib.contextmanager
def bind_calls():
    """The signatures ``inspect.Signature.bind`` runs on inside the block."""
    calls, bind = [], inspect.Signature.bind

    def counted(signature, *args, **kwargs):
        calls.append(signature)
        return bind(signature, *args, **kwargs)

    with mock.patch.object(inspect.Signature, "bind", counted):
        yield calls


def handler_with(signature):
    def handler(*args, **kwargs):
        return [list(args), kwargs]

    handler.__signature__ = signature
    return handler


@st.composite
def signatures(draw):
    count = draw(st.integers(0, 4))
    required = draw(st.integers(0, count))
    return inspect.Signature([
        inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                          **({} if index < required else {"default": index}))
        for index, name in enumerate(NAMES[:count])])


#: Params as JSON text: omitted, an array of 0-6, or an object whose keys may
#: repeat (the last one wins, as ``json.loads`` reads it).
params_text = st.one_of(
    st.none(),
    st.lists(st.integers(0, 9), max_size=6).map(json.dumps),
    st.lists(st.tuples(st.sampled_from(NAMES + UNKNOWN), st.integers(0, 9)),
             max_size=6).map(lambda pairs: "{" + ", ".join(
                 f'"{key}": {value}' for key, value in pairs) + "}"),
)


class TestArityTable:
    @settings(max_examples=300, deadline=None)
    @given(signature=signatures(), text=params_text)
    def test_the_table_admits_exactly_what_bind_admits(self, signature, text):
        gateway = JsonRpcGateway()
        gateway.register("probe", handler_with(signature))
        params = None if text is None else json.loads(text)
        try:
            if isinstance(params, dict):
                signature.bind(**params)
            else:
                signature.bind(*(params or ()))
            admitted = True
        except TypeError:
            admitted = False
        body = '{"jsonrpc": "2.0", "id": 1, "method": "probe"'
        body += "}" if text is None else f', "params": {text}}}'
        with bind_calls() as calls:
            reply = json.loads(gateway.handle_raw(body))
        if admitted:
            assert "result" in reply, reply
            assert calls == []
        else:
            assert reply["error"]["code"] == INVALID_PARAMS
            assert reply["error"]["message"].startswith("invalid params for probe: ")
            assert calls == [signature]

    @pytest.mark.parametrize("handler, good, bad", [
        pytest.param(lambda *values: list(values), [1, 2, 3], {"values": 1},
                     id="star-args"),
        pytest.param(lambda a, *, b=1: [a, b], {"a": 1, "b": 2}, [1, 2],
                     id="keyword-only"),
        pytest.param(lambda a, /, b=1: [a, b], [1, 2], {"a": 1},
                     id="positional-only"),
        pytest.param(lambda a, **more: [a, more], {"a": 1, "z": 2}, [],
                     id="star-star-kwargs"),
    ])
    def test_a_signature_the_table_cannot_express_falls_back_to_bind(
            self, handler, good, bad):
        gateway = JsonRpcGateway()
        gateway.register("probe", handler)
        with bind_calls() as calls:
            accepted = gateway.handle(make_request("probe", good))
            refused = gateway.handle(make_request("probe", bad))
        assert "result" in accepted, accepted
        assert refused["error"]["code"] == INVALID_PARAMS
        assert len(calls) == 2  # one bind a call, admitted or not

    def test_served_calls_that_fit_never_bind(self, gateway):
        calls = [("eth_blockNumber", []), ("eth_chainId", None),
                 ("eth_getBalance", ["0x" + "11" * 20]),
                 ("eth_getBalance", {"address": "0x" + "11" * 20, "block": "latest"}),
                 ("eth_getBlockByNumber", [0, False]), ("eth_getLogs", [{}])]
        with bind_calls() as binds:
            replies = [gateway.handle(make_request(method, params))
                       for method, params in calls]
        assert all("result" in reply for reply in replies), replies
        assert binds == []


#: Replies recorded from the gateway when ``Signature.bind`` judged every call.
ADDRESS = "0x" + "11" * 20
REFUSALS = [
    ("eth_getBalance", [], "missing a required argument: 'address'"),
    ("eth_getBalance", None, "missing a required argument: 'address'"),
    ("eth_getBalance", [ADDRESS, "latest", 3], "too many positional arguments"),
    ("eth_getBalance", {"block": "latest"}, "missing a required argument: 'address'"),
    ("eth_getBalance", {"address": ADDRESS, "bogus": 1},
     "got an unexpected keyword argument 'bogus'"),
    ("eth_blockNumber", [1], "too many positional arguments"),
    ("eth_blockNumber", {"bogus_kwarg": 1},
     "got an unexpected keyword argument 'bogus_kwarg'"),
    ("eth_getBlockByNumber", [1, False, 3], "too many positional arguments"),
    ("eth_getBlockByNumber", {"full": True}, "got an unexpected keyword argument 'full'"),
    ("eth_getTransactionReceipt", {}, "missing a required argument: 'tx_hash'"),
    ("eth_getLogs", [{}, {}], "too many positional arguments"),
    ("eth_getLogs", {"criteria": {}, "x": 1}, "got an unexpected keyword argument 'x'"),
    ("eth_call", [{"to": ADDRESS}, "latest", 1, 2], "too many positional arguments"),
]


@pytest.mark.parametrize("method, params, reason", REFUSALS,
                         ids=[f"{case[0]}-{index}" for index, case in enumerate(REFUSALS)])
def test_a_refused_call_replies_byte_for_byte_as_before(gateway, method, params, reason):
    envelope = {"jsonrpc": "2.0", "id": 7, "method": method}
    if params is not None:
        envelope["params"] = params
    message = json.dumps(f"invalid params for {method}: {reason}")
    assert gateway.handle_raw(json.dumps(envelope)) == (
        '{"jsonrpc": "2.0", "id": 7, "error": {"code": -32602, "message": '
        + message + "}}").encode()
