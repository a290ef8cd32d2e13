"""Tests for repro.contracts.framework (the contract runtime)."""

import pytest

from repro.errors import ContractRevert
from repro.chain.account import Address
from repro.chain.executor import BlockContext, CallContext
from repro.chain.gas import GasMeter, GasSchedule
from repro.chain.keys import KeyPair
from repro.chain.state import WorldState
from repro.contracts import framework
from repro.contracts.framework import Contract, ContractRegistry, external, payable, view

CALLER = Address(KeyPair.from_label("caller").address)
CONTRACT_ADDRESS = Address(KeyPair.from_label("contract-account").address)


class Counter(Contract):
    """A tiny test contract with each ABI kind."""

    def constructor(self, ctx, start=0):
        self.sstore(ctx, "count", start)
        self.sstore(ctx, "owner", str(ctx.caller))

    @external
    def increment(self, ctx, amount=1):
        self.require(amount > 0, "amount must be positive")
        count = self.sload(ctx, "count", 0) + amount
        self.sstore(ctx, "count", count)
        ctx.emit("Incremented", count=count)
        return count

    @payable
    def donate(self, ctx):
        return ctx.value

    @view
    def count(self, ctx):
        return self.sload(ctx, "count", 0)

    @view
    def bad_view(self, ctx):
        self.sstore(ctx, "count", 999)
        return 999


def make_ctx(value=0, gas_limit=1_000_000):
    state = WorldState()
    state.credit(CONTRACT_ADDRESS, 0)
    return CallContext(
        state=state,
        meter=GasMeter(gas_limit),
        caller=CALLER,
        origin=CALLER,
        contract_address=CONTRACT_ADDRESS,
        value=value,
        block=BlockContext(number=1, timestamp=12.0),
        schedule=GasSchedule(),
    )


@pytest.fixture()
def registry():
    reg = ContractRegistry()
    reg.register(Counter)
    return reg


class TestAbi:
    def test_abi_lists_decorated_methods_only(self):
        abi = Counter.abi()
        assert set(abi) == {"increment", "donate", "count", "bad_view"}

    def test_abi_kinds(self):
        abi = Counter.abi()
        assert abi["increment"]["kind"] == "external"
        assert abi["donate"]["payable"] is True
        assert abi["count"]["view"] is True

    def test_abi_inputs_exclude_self_and_ctx(self):
        assert Counter.abi()["increment"]["inputs"] == ["amount"]

    def test_code_size_positive_and_stable(self):
        assert Counter.code_size() == Counter.code_size() > 0

    def test_abi_and_code_size_inspect_a_class_once(self, monkeypatch):
        class Fresh(Counter):
            @external
            def reset(self, ctx):
                self.sstore(ctx, "count", 0)

        first_abi, first_size = Fresh.abi(), Fresh.code_size()

        def refuse(*args, **kwargs):
            raise AssertionError("the class was inspected again")

        for name in ("getmembers", "signature", "getsource"):
            monkeypatch.setattr(framework.inspect, name, refuse)
        assert Fresh.abi() == first_abi
        assert Fresh.code_size() == first_size

    def test_memo_is_per_class_not_inherited(self):
        class Wider(Counter):
            @view
            def owner(self, ctx):
                return self.sload(ctx, "owner")

        assert "owner" not in Counter.abi()
        assert set(Wider.abi()) == set(Counter.abi()) | {"owner"}
        assert Wider.code_size() != Counter.code_size()

    def test_callers_cannot_edit_the_memoised_abi(self):
        abi = Counter.abi()
        abi["increment"]["payable"] = True
        abi["increment"]["inputs"].append("extra")
        del abi["count"]
        fresh = Counter.abi()
        assert fresh["increment"]["payable"] is False
        assert fresh["increment"]["inputs"] == ["amount"]
        assert "count" in fresh


class TestRegistry:
    def test_register_and_list(self, registry):
        assert "Counter" in registry.known_contracts()

    def test_register_rejects_non_contract(self, registry):
        with pytest.raises(TypeError):
            registry.register(object)

    def test_create_runs_constructor(self, registry):
        ctx = make_ctx()
        result = registry.create("Counter", [5], ctx)
        assert ctx.storage["count"] == 5
        assert result.code_size > 0

    def test_create_unknown_contract_reverts(self, registry):
        with pytest.raises(ContractRevert):
            registry.create("Nope", [], make_ctx())

    def test_create_with_wrong_args_reverts(self, registry):
        with pytest.raises(ContractRevert):
            registry.create("Counter", [1, 2, 3, 4], make_ctx())


class TestCalls:
    def test_external_call_mutates_storage_and_emits(self, registry):
        ctx = make_ctx()
        contract = registry.create("Counter", [0], ctx).contract
        result = registry.call(contract, "increment", [3], ctx)
        assert result == 3
        assert ctx.storage["count"] == 3
        assert ctx.logs[-1].name == "Incremented"

    def test_unknown_method_reverts(self, registry):
        ctx = make_ctx()
        contract = registry.create("Counter", [0], ctx).contract
        with pytest.raises(ContractRevert):
            registry.call(contract, "selfdestruct", [], ctx)

    def test_non_payable_method_rejects_value(self, registry):
        ctx = make_ctx(value=100)
        contract = registry.create("Counter", [0], make_ctx()).contract
        with pytest.raises(ContractRevert):
            registry.call(contract, "increment", [1], ctx)

    def test_payable_method_accepts_value(self, registry):
        contract = registry.create("Counter", [0], make_ctx()).contract
        ctx = make_ctx(value=100)
        assert registry.call(contract, "donate", [], ctx) == 100

    def test_require_failure_reverts_with_reason(self, registry):
        ctx = make_ctx()
        contract = registry.create("Counter", [0], ctx).contract
        with pytest.raises(ContractRevert, match="amount must be positive"):
            registry.call(contract, "increment", [0], ctx)

    def test_view_method_cannot_write(self, registry):
        ctx = make_ctx()
        contract = registry.create("Counter", [0], ctx).contract
        with pytest.raises(ContractRevert):
            registry.call(contract, "bad_view", [], ctx)

    def test_view_method_reads(self, registry):
        ctx = make_ctx()
        contract = registry.create("Counter", [7], ctx).contract
        assert registry.call(contract, "count", [], ctx) == 7


class TestGasMetering:
    def test_sstore_charges_more_for_new_slots(self, registry):
        ctx = make_ctx()
        contract = registry.create("Counter", [0], ctx).contract
        before = ctx.meter.gas_used
        registry.call(contract, "increment", [1], ctx)  # updates existing slot
        first_call = ctx.meter.gas_used - before
        schedule = ctx.schedule
        assert first_call >= schedule.sstore_update + schedule.sload

    def test_storage_clear_adds_refund(self):
        ctx = make_ctx()
        contract = Counter()
        contract.sstore(ctx, "temp", 1)
        assert ctx.meter.refund_counter == 0
        contract.sstore(ctx, "temp", None)
        assert ctx.meter.refund_counter == ctx.schedule.sstore_clear_refund
        assert "temp" not in ctx.storage

    def test_emit_charges_log_gas(self):
        ctx = make_ctx()
        before = ctx.meter.gas_used
        ctx.emit("Something", a=1)
        assert ctx.meter.gas_used > before

    def test_transfer_out_moves_contract_balance(self):
        ctx = make_ctx()
        ctx.state.credit(CONTRACT_ADDRESS, 500)
        ctx.transfer_out(CALLER, 200)
        assert ctx.state.balance_of(CALLER) == 200
        assert ctx.self_balance() == 300

    def test_transfer_out_beyond_balance_reverts(self):
        ctx = make_ctx()
        with pytest.raises(ContractRevert):
            ctx.transfer_out(CALLER, 10)
