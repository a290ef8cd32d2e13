"""Transaction execution: value transfers, contract creation and calls.

The executor is the counterpart of the EVM's state-transition function.  It
validates a signed transaction, charges the up-front fee, meters gas through
a :class:`~repro.chain.gas.GasMeter`, dispatches contract payloads to a
*contract backend* (implemented by :mod:`repro.contracts.framework`), rolls
back state on revert or out-of-gas, refunds unused gas and produces the
:class:`~repro.chain.receipts.TransactionReceipt`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Protocol

from repro.errors import (
    AbiError,
    ContractNotFoundError,
    ContractRevert,
    InsufficientFundsError,
    InvalidSignatureError,
    InvalidTransactionError,
    NonceError,
    OutOfGasError,
)
from repro.chain.account import Address
from repro.chain.events import EventLog
from repro.chain import gas
from repro.chain.gas import GasMeter
from repro.chain.receipts import TransactionReceipt
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.utils.hashing import keccak256
from repro.utils.serialization import rlp_encode


#: Gas a read-only ``eth_call`` may burn before it is cut off.
STATIC_CALL_GAS_LIMIT = 10_000_000

#: Head-room :meth:`TransactionExecutor.estimate_gas` adds to a probe's gas.
ESTIMATE_SAFETY_MARGIN = 0.10


@dataclass
class BlockContext:
    """Block-level environment available to contract code."""

    number: int = 0
    timestamp: float = 0.0
    coinbase: Optional[Address] = None
    gas_price: int = 0


@dataclass
class CallContext:
    """Everything a contract method can see and touch during execution.

    The contract framework uses the context for storage access (charging
    SLOAD/SSTORE gas through :attr:`meter`), event emission, value transfers
    out of the contract, and to read the caller / transaction value / block
    metadata -- i.e. Solidity's ``msg`` and ``block`` globals.
    """

    state: WorldState
    meter: GasMeter
    caller: Address
    origin: Address
    contract_address: Address
    value: int
    block: BlockContext
    logs: List[EventLog] = field(default_factory=list, init=False)

    @property
    def storage(self) -> dict:
        """Persistent storage dictionary of the executing contract, to read.

        Writes go through :meth:`WorldState.set_storage`, which journals them
        for a revert.
        """
        return self.state.get_account(self.contract_address).storage

    def emit(self, event_name: str, **args: Any) -> EventLog:
        """Emit an event log, charging log gas."""
        data_size = len(str(args))
        self.meter.consume(
            gas.log_gas(num_topics=1, data_size=data_size),
            reason=f"LOG {event_name}",
        )
        log = EventLog(address=self.contract_address, name=event_name, args=dict(args))
        self.logs.append(log)
        return log

    def transfer_out(self, recipient: Address | str, amount_wei: int) -> None:
        """Send wei from the contract's balance to ``recipient``."""
        self.meter.consume(gas.CALL_VALUE_TRANSFER, reason="CALL value transfer")
        try:
            self.state.transfer(self.contract_address, Address(recipient), amount_wei)
        except InsufficientFundsError as exc:
            raise ContractRevert(f"insufficient contract balance: {exc}") from exc


@dataclass
class CreateResult:
    """Result of instantiating a contract through the backend."""

    contract: Any
    code_size: int


class ContractBackend(Protocol):
    """Interface the executor uses to run contract code.

    Implemented by :class:`repro.contracts.framework.ContractRegistry`.  The
    chain package deliberately knows nothing about specific contracts.
    """

    def create(self, name: str, args: List[Any], ctx: CallContext) -> CreateResult:
        """Instantiate contract ``name`` with constructor ``args``."""

    def call(self, contract: Any, method: str, args: List[Any], ctx: CallContext) -> Any:
        """Invoke ``method`` on a deployed ``contract`` instance."""


def contract_address_for(sender: Address, nonce: int) -> Address:
    """Derive the deterministic address of a contract created by ``sender``.

    Mirrors Ethereum's ``keccak(rlp(sender, nonce))[-20:]`` derivation.
    """
    digest = keccak256(rlp_encode([str(sender).lower(), nonce]))
    return Address("0x" + digest[-20:].hex())


class TransactionExecutor:
    """Applies transactions to a :class:`WorldState`."""

    def __init__(self, backend: Optional[ContractBackend] = None) -> None:
        self.backend = backend

    # -- validation ---------------------------------------------------------

    def validate(self, tx: Transaction, state: WorldState, check_nonce: bool = True,
                 check_signature: bool = True) -> None:
        """Raise if ``tx`` cannot be included against ``state``.

        ``check_signature=False`` skips the signature verify (the most
        expensive step): deferred verification (``repro.batchverify``) has
        already structurally vetted the transaction at submission and
        settles the real verdict at block production.
        """
        if check_signature and (tx.signature is None or not tx.verify_signature()):
            raise InvalidSignatureError(f"transaction {tx.hash_hex} is not properly signed")
        if check_nonce:
            expected = state.nonce_of(tx.sender)
            if tx.nonce != expected:
                raise NonceError(
                    f"transaction nonce {tx.nonce} != account nonce {expected} for {tx.sender}"
                )
        required = tx.value + tx.max_fee()
        balance = state.balance_of(tx.sender)
        if balance < required:
            raise InsufficientFundsError(
                f"{tx.sender} holds {balance} wei but needs {required} wei"
            )
        if tx.intrinsic_gas() > tx.gas_limit:
            raise InvalidTransactionError(
                f"gas limit {tx.gas_limit} below intrinsic gas {tx.intrinsic_gas()}"
            )

    # -- execution ----------------------------------------------------------

    def apply(
        self,
        tx: Transaction,
        state: WorldState,
        block: Optional[BlockContext] = None,
        check_signature: bool = True,
    ) -> TransactionReceipt:
        """Execute ``tx`` against ``state`` and return its receipt.

        The receipt's ``status`` is ``False`` when execution reverted or ran
        out of gas; in that case all state changes made by the execution are
        rolled back but the fee for the gas consumed is still charged, as on
        Ethereum.  ``check_signature=False`` is for :meth:`estimate_gas`
        only: nothing it applies survives the call.
        """
        block = block or BlockContext(gas_price=tx.gas_price)
        self.validate(tx, state, check_signature=check_signature)

        # Charge the maximum fee up front and bump the nonce; these survive
        # even if execution later fails.
        state.debit(tx.sender, tx.max_fee())
        state.increment_nonce(tx.sender)

        meter = GasMeter(tx.gas_limit)
        snapshot_id = state.snapshot()
        logs: List[EventLog] = []
        status = True
        return_value: Any = None
        revert_reason: Optional[str] = None
        contract_address: Optional[Address] = None

        out_of_gas = False
        try:
            meter.consume(tx.intrinsic_gas(), reason="intrinsic")
            return_value, contract_address, logs = self._execute_payload(tx, state, meter, block)
        except ContractRevert as exc:
            status = False
            revert_reason = exc.reason
            state.revert(snapshot_id)
        except OutOfGasError as exc:
            status = False
            out_of_gas = True
            revert_reason = str(exc)
            state.revert(snapshot_id)
        except ContractNotFoundError as exc:
            status = False
            revert_reason = str(exc)
            state.revert(snapshot_id)
        except (AbiError, InvalidTransactionError) as exc:
            # Undecodable calldata or an argument-count mismatch surfaces
            # *after* the fee was charged and the nonce bumped; treating it
            # as a revert (instead of letting it escape mid-apply) keeps the
            # no-partial-writes guarantee: the payload's state changes roll
            # back, the fee accounting below still settles.
            status = False
            revert_reason = str(exc)
            state.revert(snapshot_id)
        else:
            state.commit(snapshot_id)

        gas_used = meter.gas_limit if out_of_gas else meter.settle()
        gas_used = min(gas_used, tx.gas_limit)

        # Refund the unused portion of the up-front fee and route the burned
        # fee to the block's fee recipient so total supply stays auditable.
        refund_wei = (tx.gas_limit - gas_used) * tx.gas_price
        state.credit(tx.sender, refund_wei)
        fee_wei = gas_used * tx.gas_price
        if block.coinbase is not None and fee_wei > 0:
            state.credit(block.coinbase, fee_wei)

        return TransactionReceipt(
            transaction_hash=tx.hash_hex,
            sender=tx.sender,
            to=tx.to,
            status=status,
            gas_used=gas_used,
            gas_price=tx.gas_price,
            block_number=block.number,
            contract_address=contract_address,
            logs=logs if status else [],
            return_value=return_value if status else None,
            revert_reason=revert_reason,
        )

    def _execute_payload(
        self,
        tx: Transaction,
        state: WorldState,
        meter: GasMeter,
        block: BlockContext,
    ):
        """Run the value-transfer / creation / call described by ``tx``."""
        if tx.is_create:
            if self.backend is None:
                raise ContractRevert("no contract backend configured")
            payload = tx.decoded_payload()
            name = payload.get("create")
            if not name:
                raise ContractRevert("creation payload missing contract name")
            contract_address = contract_address_for(tx.sender, tx.nonce)
            ctx = self._make_context(tx, state, meter, block, contract_address)
            if tx.value:
                state.transfer(tx.sender, contract_address, tx.value)
            result = self.backend.create(name, payload.get("args", []), ctx)
            meter.consume(gas.code_deposit_gas(result.code_size), reason="code deposit")
            state.install_contract(contract_address, result.contract, result.code_size)
            return None, contract_address, ctx.logs

        destination = state.get_account(tx.to)
        if destination.is_contract:
            if self.backend is None:
                raise ContractRevert("no contract backend configured")
            payload = tx.decoded_payload()
            method = payload.get("method")
            if not method:
                raise ContractRevert("call payload missing method name")
            ctx = self._make_context(tx, state, meter, block, Address(tx.to))
            if tx.value:
                state.transfer(tx.sender, tx.to, tx.value)
            return_value = self.backend.call(destination.contract, method, payload.get("args", []), ctx)
            return return_value, None, ctx.logs

        # Plain value transfer to an externally-owned account.
        if tx.value:
            state.transfer(tx.sender, tx.to, tx.value)
        return None, None, []

    def _make_context(
        self,
        tx: Transaction,
        state: WorldState,
        meter: GasMeter,
        block: BlockContext,
        contract_address: Address,
    ) -> CallContext:
        """Build the :class:`CallContext` for a contract execution."""
        return CallContext(
            state=state,
            meter=meter,
            caller=tx.sender,
            origin=tx.sender,
            contract_address=contract_address,
            value=tx.value,
            block=block,
        )

    # -- read-only calls and estimation --------------------------------------

    def static_call(
        self,
        state: WorldState,
        caller: Address,
        contract_address: Address,
        method: str,
        args: List[Any],
        block: Optional[BlockContext] = None,
    ) -> Any:
        """Execute a read-only contract call without mutating state.

        Mirrors ``eth_call``: the call runs against a snapshot that is always
        reverted, so it is free for the caller (no gas is charged to any
        account) -- this is why Step 5 of the paper's workflow ("Download
        CIDs") costs nothing.
        """
        account = state.get_account(contract_address)
        if not account.is_contract:
            raise ContractNotFoundError(f"no contract at {contract_address}")
        if self.backend is None:
            raise ContractNotFoundError("no contract backend configured")
        block = block or BlockContext()
        snapshot_id = state.snapshot()
        meter = GasMeter(STATIC_CALL_GAS_LIMIT)
        ctx = CallContext(
            state=state,
            meter=meter,
            caller=Address(caller),
            origin=Address(caller),
            contract_address=Address(contract_address),
            value=0,
            block=block,
        )
        try:
            return self.backend.call(account.contract, method, args, ctx)
        finally:
            state.revert(snapshot_id)

    def estimate_gas(
        self,
        tx: Transaction,
        state: WorldState,
        block: Optional[BlockContext] = None,
    ) -> int:
        """Estimate the gas a transaction will use, with a safety margin.

        The transaction is executed against a snapshot which is then fully
        reverted (including nonce and balance changes), mirroring
        ``eth_estimateGas``.  As there, the probe need not be signed: gas
        does not depend on the signature, so an unsigned probe skips the
        signature verify; a probe that does carry a signature must verify.
        """
        snapshot_id = state.snapshot()
        try:
            receipt = self.apply(tx, state, block,
                                 check_signature=tx.signature is not None)
        finally:
            state.revert(snapshot_id)
        estimated = int(receipt.gas_used * (1.0 + ESTIMATE_SAFETY_MARGIN))
        return max(estimated, tx.intrinsic_gas())
