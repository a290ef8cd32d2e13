"""Tests for repro.chain.executor (the state-transition function)."""

import pytest

from repro.errors import (
    InsufficientFundsError,
    InvalidSignatureError,
    NonceError,
)
from repro.chain.account import Address
from repro.chain.executor import BlockContext, TransactionExecutor, contract_address_for
from repro.chain.keys import KeyPair
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction, encode_call, encode_create
from repro.contracts.registry import default_registry
from repro.utils.units import ether_to_wei

ALICE = KeyPair.from_label("alice")
BOB = KeyPair.from_label("bob")
GAS_PRICE = 10**9


@pytest.fixture()
def state() -> WorldState:
    world = WorldState()
    world.credit(ALICE.address, ether_to_wei(5))
    world.credit(BOB.address, ether_to_wei(1))
    return world


@pytest.fixture()
def executor() -> TransactionExecutor:
    return TransactionExecutor(backend=default_registry())


def signed_transfer(value: int, nonce: int = 0, gas_limit: int = 21_000) -> Transaction:
    tx = Transaction(
        sender=Address(ALICE.address),
        to=Address(BOB.address),
        value=value,
        nonce=nonce,
        gas_limit=gas_limit,
        gas_price=GAS_PRICE,
    )
    return tx.sign(ALICE)


class TestValidation:
    def test_unsigned_rejected(self, executor, state):
        tx = Transaction(sender=Address(ALICE.address), to=Address(BOB.address), value=1)
        with pytest.raises(InvalidSignatureError):
            executor.validate(tx, state)

    def test_wrong_nonce_rejected(self, executor, state):
        with pytest.raises(NonceError):
            executor.validate(signed_transfer(1, nonce=5), state)

    def test_insufficient_funds_rejected(self, executor, state):
        with pytest.raises(InsufficientFundsError):
            executor.validate(signed_transfer(ether_to_wei(100)), state)


class TestTransfers:
    def test_successful_transfer_moves_value_and_charges_fee(self, executor, state):
        before_sender = state.balance_of(ALICE.address)
        receipt = executor.apply(signed_transfer(12345), state)
        assert receipt.status
        assert receipt.gas_used == 21_000
        assert state.balance_of(BOB.address) == ether_to_wei(1) + 12345
        expected = before_sender - 12345 - 21_000 * GAS_PRICE
        assert state.balance_of(ALICE.address) == expected

    def test_nonce_incremented(self, executor, state):
        executor.apply(signed_transfer(1), state)
        assert state.nonce_of(ALICE.address) == 1

    def test_fee_goes_to_coinbase(self, executor, state):
        coinbase = Address(KeyPair.from_label("validator").address)
        block = BlockContext(number=1, coinbase=coinbase, gas_price=GAS_PRICE)
        receipt = executor.apply(signed_transfer(1), state, block)
        assert state.balance_of(coinbase) == receipt.fee_wei

    def test_unused_gas_refunded(self, executor, state):
        before = state.balance_of(ALICE.address)
        receipt = executor.apply(signed_transfer(0, gas_limit=100_000), state)
        assert receipt.gas_used == 21_000
        assert state.balance_of(ALICE.address) == before - 21_000 * GAS_PRICE


class TestContractLifecycle:
    def deploy(self, executor, state, value=0):
        tx = Transaction(
            sender=Address(ALICE.address),
            to=None,
            value=value,
            data=encode_create("CidStorage", []),
            nonce=state.nonce_of(ALICE.address),
            gas_limit=3_000_000,
            gas_price=GAS_PRICE,
        ).sign(ALICE)
        return executor.apply(tx, state)

    def test_deployment_creates_contract_account(self, executor, state):
        receipt = self.deploy(executor, state)
        assert receipt.status
        assert receipt.contract_address is not None
        assert state.get_account(receipt.contract_address).is_contract

    def test_deployment_address_is_deterministic(self, executor, state):
        receipt = self.deploy(executor, state)
        assert receipt.contract_address == contract_address_for(Address(ALICE.address), 0)

    def test_deployment_charges_code_deposit(self, executor, state):
        receipt = self.deploy(executor, state)
        assert receipt.gas_used > 21_000 + 32_000

    def test_unknown_contract_reverts(self, executor, state):
        tx = Transaction(
            sender=Address(ALICE.address),
            to=None,
            data=encode_create("DoesNotExist", []),
            nonce=0,
            gas_limit=3_000_000,
            gas_price=GAS_PRICE,
        ).sign(ALICE)
        receipt = executor.apply(tx, state)
        assert not receipt.status
        assert "unknown contract" in receipt.revert_reason

    def test_contract_call_executes_and_emits_logs(self, executor, state):
        deployment = self.deploy(executor, state)
        call = Transaction(
            sender=Address(BOB.address),
            to=deployment.contract_address,
            data=encode_call("uploadCid", ["QmTest"]),
            nonce=0,
            gas_limit=500_000,
            gas_price=GAS_PRICE,
        ).sign(BOB)
        receipt = executor.apply(call, state)
        assert receipt.status
        assert receipt.return_value == 0
        assert any(log.name == "CidUploaded" for log in receipt.logs)

    def test_reverted_call_rolls_back_state_but_charges_gas(self, executor, state):
        deployment = self.deploy(executor, state)
        bob_before = state.balance_of(BOB.address)
        call = Transaction(
            sender=Address(BOB.address),
            to=deployment.contract_address,
            data=encode_call("getCid", [99]),  # invalid index -> revert
            nonce=0,
            gas_limit=500_000,
            gas_price=GAS_PRICE,
        ).sign(BOB)
        receipt = executor.apply(call, state)
        assert not receipt.status
        assert "Invalid CID index" in receipt.revert_reason
        assert receipt.logs == []
        assert state.balance_of(BOB.address) < bob_before  # fee still charged
        assert state.nonce_of(BOB.address) == 1

    def test_out_of_gas_call_consumes_full_limit(self, executor, state):
        deployment = self.deploy(executor, state)
        call = Transaction(
            sender=Address(BOB.address),
            to=deployment.contract_address,
            data=encode_call("uploadCid", ["QmTest"]),
            nonce=0,
            gas_limit=30_000,  # below what the SSTOREs need
            gas_price=GAS_PRICE,
        ).sign(BOB)
        receipt = executor.apply(call, state)
        assert not receipt.status
        assert receipt.gas_used == 30_000

    def test_value_sent_with_call_credits_contract(self, executor, state):
        deployment = self.deploy(executor, state)
        call = Transaction(
            sender=Address(ALICE.address),
            to=deployment.contract_address,
            value=777,
            data=b"",
            nonce=state.nonce_of(ALICE.address),
            gas_limit=500_000,
            gas_price=GAS_PRICE,
        ).sign(ALICE)
        receipt = executor.apply(call, state)
        assert not receipt.status  # empty payload on a contract is a revert
        assert state.balance_of(deployment.contract_address) == 0


class TestStaticCallAndEstimate:
    def test_static_call_reads_without_fees(self, executor, state):
        deployment = TestContractLifecycle().deploy(executor, state)
        balance_before = state.balance_of(ALICE.address)
        count = executor.static_call(
            state, Address(ALICE.address), deployment.contract_address, "cidCount", []
        )
        assert count == 0
        assert state.balance_of(ALICE.address) == balance_before

    def test_estimate_gas_leaves_state_untouched(self, executor, state):
        nonce_before = state.nonce_of(ALICE.address)
        balance_before = state.balance_of(ALICE.address)
        estimate = executor.estimate_gas(signed_transfer(100), state)
        assert estimate >= 21_000
        assert state.nonce_of(ALICE.address) == nonce_before
        assert state.balance_of(ALICE.address) == balance_before

    def test_estimate_gas_accepts_an_unsigned_probe(self, executor, state):
        # eth_estimateGas takes a call object, not a signed transaction: gas
        # does not depend on the signature, so the estimate must match the
        # signed probe's and must not need a Schnorr verify to get there.
        signed = signed_transfer(100)
        unsigned = Transaction.from_dict({**signed.to_dict(), "signature": None})
        assert unsigned.signature is None
        assert executor.estimate_gas(unsigned, state) == \
            executor.estimate_gas(signed, state)
        assert state.nonce_of(ALICE.address) == 0
        # Only estimation waives the check: applying for real still refuses.
        with pytest.raises(InvalidSignatureError):
            executor.apply(unsigned, state)

    def test_estimate_gas_still_verifies_a_signed_probe(self, executor, state):
        forged = signed_transfer(100)
        forged.signature = BOB.sign(forged.hash)  # not the sender's key
        with pytest.raises(InvalidSignatureError):
            executor.estimate_gas(forged, state)


class TestMidApplyErrors:
    """Calls that blow up *after* the fee debit must leave no partial writes.

    ``AbiError`` (argument-count mismatch) and ``InvalidTransactionError``
    (undecodable calldata) surface from inside the payload execution, past
    the point where the fee was charged and the nonce bumped.  They must be
    settled like reverts -- storage rolled back, fee kept, nonce kept --
    never escape ``apply`` mid-block.
    """

    def deploy(self, executor, state):
        return TestContractLifecycle().deploy(executor, state)

    def call_tx(self, state, contract, data, gas_limit=300_000):
        return Transaction(
            sender=Address(BOB.address),
            to=contract,
            data=data,
            nonce=state.nonce_of(BOB.address),
            gas_limit=gas_limit,
            gas_price=GAS_PRICE,
        ).sign(BOB)

    def test_argument_mismatch_settles_as_revert(self, executor, state):
        deployment = self.deploy(executor, state)
        nonce_before = state.nonce_of(BOB.address)
        storage_before = dict(
            state.get_account(deployment.contract_address).storage)
        tx = self.call_tx(state, deployment.contract_address,
                          encode_call("uploadCid", []))  # cid arg missing
        receipt = executor.apply(tx, state)
        assert not receipt.status
        assert "argument mismatch" in receipt.revert_reason
        assert receipt.logs == []
        # No partial writes: contract storage untouched, nonce bumped once,
        # only the fee left the sender.
        assert dict(
            state.get_account(deployment.contract_address).storage
        ) == storage_before
        assert state.nonce_of(BOB.address) == nonce_before + 1

    def test_undecodable_calldata_settles_as_revert(self, executor, state):
        deployment = self.deploy(executor, state)
        balance_before = state.balance_of(BOB.address)
        tx = self.call_tx(state, deployment.contract_address,
                          b"\xff\xfenot-json")
        receipt = executor.apply(tx, state)
        assert not receipt.status
        assert receipt.revert_reason
        assert state.balance_of(BOB.address) == \
            balance_before - receipt.gas_used * GAS_PRICE

    def test_mismatch_on_view_method_settles_as_revert(self, executor, state):
        deployment = self.deploy(executor, state)
        tx = self.call_tx(state, deployment.contract_address,
                          encode_call("cidCount", ["unexpected-arg"]))
        receipt = executor.apply(tx, state)
        assert not receipt.status
        assert "argument mismatch" in receipt.revert_reason
