"""Tests for repro.chain.consensus."""

import pytest

from repro.chain.account import Address
from repro.chain.consensus import ProofOfAuthority, SEPOLIA_SLOT_SECONDS
from repro.chain.keys import KeyPair
from repro.utils.clock import SimulatedClock


def validators(n=3):
    return [Address(KeyPair.from_label(f"validator-{i}").address) for i in range(n)]


class TestSlots:
    def test_default_slot_matches_sepolia(self):
        assert ProofOfAuthority().slot_seconds == SEPOLIA_SLOT_SECONDS == 12.0

    def test_slot_at(self):
        poa = ProofOfAuthority(validators=validators(), slot_seconds=12.0)
        assert poa.slot_at(0.0) == 0
        assert poa.slot_at(11.9) == 0
        assert poa.slot_at(12.0) == 1
        assert poa.slot_at(60.0) == 5

    def test_slot_timestamp(self):
        poa = ProofOfAuthority(validators=validators(), slot_seconds=12.0, genesis_timestamp=100)
        assert poa.slot_timestamp(3) == 136.0

    def test_proposer_round_robin(self):
        vals = validators(3)
        poa = ProofOfAuthority(validators=vals)
        assert poa.proposer_for_slot(0) == vals[0]
        assert poa.proposer_for_slot(4) == vals[1]

    def test_invalid_slot_interval_rejected(self):
        with pytest.raises(ValueError):
            ProofOfAuthority(validators=validators(), slot_seconds=0)


class TestInclusionLatency:
    def test_next_block_is_strictly_after_submission(self):
        poa = ProofOfAuthority(validators=validators())
        assert poa.next_block_timestamp(0.0) == 12.0
        assert poa.next_block_timestamp(12.0) == 24.0
        assert poa.next_block_timestamp(13.0) == 24.0

    def test_advance_to_next_block_moves_clock(self):
        poa = ProofOfAuthority(validators=validators())
        clock = SimulatedClock(start_time=5.0)
        timestamp = poa.advance_to_next_block(clock)
        assert clock.now == timestamp == 12.0
