"""Proof-of-authority consensus with a fixed slot time.

Sepolia (the testnet the paper deploys on) produces a block every ~12 seconds.
The :class:`ProofOfAuthority` scheduler reproduces that cadence against the
simulated clock: validators take turns proposing, and a transaction submitted
at time ``t`` is included no earlier than the next slot boundary after ``t``.
This waiting time is what dominates the Fig. 7 execution-time breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.chain.account import Address
from repro.utils.clock import SimulatedClock

SEPOLIA_SLOT_SECONDS = 12.0


@dataclass
class ProofOfAuthority:
    """Round-robin validator schedule with a fixed slot interval."""

    validators: List[Address] = field(default_factory=list)
    slot_seconds: float = SEPOLIA_SLOT_SECONDS
    genesis_timestamp: float = 0.0

    def __post_init__(self) -> None:
        if not self.validators:
            self.validators = [Address("0x" + "11" * 20)]
        if self.slot_seconds <= 0:
            raise ValueError(f"slot interval must be positive: {self.slot_seconds}")

    def proposer_for_slot(self, slot: int) -> Address:
        """The validator responsible for proposing in ``slot``."""
        return self.validators[slot % len(self.validators)]

    def slot_at(self, timestamp: float) -> int:
        """The slot index containing ``timestamp``."""
        if timestamp < self.genesis_timestamp:
            return 0
        return int((timestamp - self.genesis_timestamp) // self.slot_seconds)

    def slot_timestamp(self, slot: int) -> float:
        """Start time of ``slot``."""
        return self.genesis_timestamp + slot * self.slot_seconds

    def next_block_timestamp(self, after: float) -> float:
        """Timestamp of the first block boundary strictly after ``after``."""
        slot = self.slot_at(after)
        boundary = self.slot_timestamp(slot + 1)
        return boundary

    def advance_to_next_block(self, clock: SimulatedClock) -> float:
        """Advance the simulated clock to the next block boundary."""
        target = self.next_block_timestamp(clock.now)
        clock.advance_to(target)
        return target
