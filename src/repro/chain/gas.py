"""The gas schedule and gas metering.

Gas costs follow the Ethereum yellow-paper / EIP-2028 / EIP-2929 values that
dominate real transaction fees, because the paper's Fig. 5 compares exactly
these: contract deployment (intrinsic creation gas + code-deposit gas per
byte), calldata gas for submitting a CID, storage-write gas, and plain value
transfers for payments.  Reproducing the schedule reproduces the fee ordering
``deployment >> CID submission ~= payment`` and the ~0.002-ETH deployment
magnitude at typical gas prices.
"""

from __future__ import annotations

from repro.errors import OutOfGasError


# Gas cost constants: Ethereum mainnet post-EIP-2929, which Sepolia shares.

TX_BASE = 21_000
"""Intrinsic gas of every transaction."""

TX_CREATE = 32_000
"""Extra intrinsic gas for contract-creation transactions."""

CALLDATA_ZERO_BYTE = 4
"""Gas per zero byte of transaction calldata."""

CALLDATA_NONZERO_BYTE = 16
"""Gas per non-zero byte of transaction calldata (EIP-2028)."""

CODE_DEPOSIT_BYTE = 200
"""Gas per byte of deployed contract code."""

SSTORE_SET = 22_100
"""Writing a storage slot from zero to non-zero (cold access included)."""

SSTORE_UPDATE = 5_000
"""Overwriting an existing non-zero storage slot."""

SLOAD = 2_100
"""Reading a storage slot (cold access)."""

LOG_BASE = 375
"""Base cost of emitting an event log."""

LOG_TOPIC = 375
"""Cost per indexed topic of an event log."""

LOG_DATA_BYTE = 8
"""Cost per byte of un-indexed event data."""

CALL_VALUE_TRANSFER = 9_000
"""Extra cost of a message call that transfers value."""

COMPUTE_STEP = 3
"""Cost charged per abstract computation step inside contract methods."""


def calldata_gas(data: bytes) -> int:
    """Gas charged for transaction calldata, byte by byte."""
    zeros = data.count(0)
    return zeros * CALLDATA_ZERO_BYTE + (len(data) - zeros) * CALLDATA_NONZERO_BYTE


def intrinsic_gas(data: bytes, is_create: bool) -> int:
    """Intrinsic (pre-execution) gas of a transaction."""
    gas = TX_BASE + calldata_gas(data)
    if is_create:
        gas += TX_CREATE
    return gas


def code_deposit_gas(code_size: int) -> int:
    """Gas charged for depositing ``code_size`` bytes of contract code."""
    return code_size * CODE_DEPOSIT_BYTE


def log_gas(num_topics: int, data_size: int) -> int:
    """Gas charged for emitting an event with the given shape."""
    return LOG_BASE + num_topics * LOG_TOPIC + data_size * LOG_DATA_BYTE


class GasMeter:
    """Tracks gas consumption of a single transaction execution.

    The meter is handed to the contract framework so that storage reads and
    writes, event emission and per-step compute are charged as they happen.
    Exceeding the transaction's gas limit raises :class:`OutOfGasError`, which
    the executor turns into a failed receipt that still consumes the limit.
    """

    def __init__(self, gas_limit: int) -> None:
        if gas_limit <= 0:
            raise ValueError(f"gas limit must be positive, got {gas_limit}")
        self.gas_limit = int(gas_limit)
        self._used = 0

    def consume(self, amount: int, reason: str = "") -> None:
        """Charge ``amount`` gas; raise :class:`OutOfGasError` beyond the limit."""
        if amount < 0:
            raise ValueError(f"cannot consume negative gas: {amount}")
        if self._used + amount > self.gas_limit:
            self._used = self.gas_limit
            raise OutOfGasError(
                f"out of gas{': ' + reason if reason else ''} "
                f"(limit {self.gas_limit}, needed {self._used + amount})"
            )
        self._used += amount

    def settle(self) -> int:
        """Return the final gas used."""
        return self._used
