"""Property-based tests for chain invariants (signatures, gas, value conservation)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.account import Address
from repro.chain.executor import BlockContext, TransactionExecutor
from repro.chain import gas
from repro.chain.keys import KeyPair, recover_address, verify_signature
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.utils.hashing import keccak256
from tests.oracles import total_supply

SENDER = KeyPair.from_label("prop-sender")
RECIPIENT = KeyPair.from_label("prop-recipient")
GAS_PRICE = 10**9


class TestSignatureProperties:
    @given(st.binary(min_size=1, max_size=64), st.text(min_size=1, max_size=10))
    @settings(max_examples=30)
    def test_any_message_signed_by_any_key_verifies(self, message, label):
        keys = KeyPair.from_label(label)
        digest = keccak256(message)
        assert recover_address(keys.sign(digest), digest) == keys.address

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=20)
    def test_signature_does_not_verify_for_other_message(self, message):
        keys = KeyPair.from_label("prop-signer")
        digest = keccak256(message)
        other = keccak256(message + b"!")
        assert not verify_signature(keys.sign(digest), other)


class TestCalldataGasProperties:
    @given(st.binary(max_size=512))
    def test_calldata_gas_bounds(self, data):
        used = gas.calldata_gas(data)
        assert gas.CALLDATA_ZERO_BYTE * len(data) <= used <= gas.CALLDATA_NONZERO_BYTE * len(data)

    @given(st.binary(max_size=256), st.binary(max_size=256))
    def test_calldata_gas_is_additive(self, a, b):
        assert gas.calldata_gas(a + b) == gas.calldata_gas(a) + gas.calldata_gas(b)


class TestTransferProperties:
    @given(
        value=st.integers(min_value=0, max_value=10**18),
        funding=st.integers(min_value=0, max_value=2 * 10**18),
    )
    @settings(max_examples=40, deadline=None)
    def test_value_plus_fees_conserved(self, value, funding):
        """Whatever the transfer outcome, total wei (incl. fee recipient) is conserved."""
        state = WorldState()
        state.credit(SENDER.address, funding)
        coinbase = Address(KeyPair.from_label("prop-coinbase").address)
        executor = TransactionExecutor()
        tx = Transaction(
            sender=Address(SENDER.address),
            to=Address(RECIPIENT.address),
            value=value,
            nonce=0,
            gas_limit=21_000,
            gas_price=GAS_PRICE,
        ).sign(SENDER)

        total_before = total_supply(state)
        try:
            executor.apply(tx, state, BlockContext(coinbase=coinbase))
        except Exception:
            # Validation failures leave the state untouched.
            assert total_supply(state) == total_before
            assert state.balance_of(SENDER.address) == funding
            return
        assert total_supply(state) == total_before

    @given(value=st.integers(min_value=1, max_value=10**17))
    @settings(max_examples=25, deadline=None)
    def test_successful_transfer_always_delivers_exact_value(self, value):
        state = WorldState()
        state.credit(SENDER.address, 10**18)
        executor = TransactionExecutor()
        tx = Transaction(
            sender=Address(SENDER.address),
            to=Address(RECIPIENT.address),
            value=value,
            nonce=0,
            gas_limit=21_000,
            gas_price=GAS_PRICE,
        ).sign(SENDER)
        receipt = executor.apply(tx, state)
        assert receipt.status
        assert state.balance_of(RECIPIENT.address) == value
