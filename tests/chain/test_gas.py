"""Tests for repro.chain.gas."""

import pytest

from repro.errors import OutOfGasError
from repro.chain import gas
from repro.chain.gas import GasMeter


class TestGasSchedule:
    def test_calldata_gas_distinguishes_zero_bytes(self):
        assert gas.calldata_gas(b"\x00\x00") == 2 * gas.CALLDATA_ZERO_BYTE
        assert gas.calldata_gas(b"\x01\x02") == 2 * gas.CALLDATA_NONZERO_BYTE

    def test_intrinsic_gas_plain_transfer(self):
        assert gas.intrinsic_gas(b"", is_create=False) == 21_000

    def test_intrinsic_gas_creation_surcharge(self):
        assert gas.intrinsic_gas(b"", is_create=True) == 21_000 + 32_000

    def test_code_deposit_gas(self):
        assert gas.code_deposit_gas(100) == 100 * gas.CODE_DEPOSIT_BYTE

    def test_log_gas(self):
        expected = gas.LOG_BASE + 2 * gas.LOG_TOPIC + 10 * gas.LOG_DATA_BYTE
        assert gas.log_gas(num_topics=2, data_size=10) == expected

    def test_default_schedule_matches_mainnet_values(self):
        assert gas.TX_BASE == 21_000
        assert gas.CALLDATA_NONZERO_BYTE == 16
        assert gas.CODE_DEPOSIT_BYTE == 200


class TestGasMeter:
    def test_consume_accumulates(self):
        meter = GasMeter(100_000)
        meter.consume(21_000)
        meter.consume(5_000)
        assert meter.settle() == 26_000

    def test_exceeding_limit_raises(self):
        meter = GasMeter(10_000)
        with pytest.raises(OutOfGasError):
            meter.consume(10_001)

    def test_out_of_gas_consumes_everything(self):
        meter = GasMeter(10_000)
        with pytest.raises(OutOfGasError):
            meter.consume(50_000)
        assert meter.settle() == 10_000

    def test_negative_consumption_rejected(self):
        meter = GasMeter(10_000)
        with pytest.raises(ValueError):
            meter.consume(-1)

    def test_zero_gas_limit_rejected(self):
        with pytest.raises(ValueError):
            GasMeter(0)
