"""Tests for repro.utils.units."""

from decimal import Decimal

from repro.utils.units import (
    ETHER,
    GWEI,
    ether_to_wei,
    format_ether,
    gwei_to_wei,
    wei_to_ether,
)


class TestConversions:
    def test_one_ether_in_wei(self):
        assert ether_to_wei(1) == ETHER == 10**18

    def test_one_gwei_in_wei(self):
        assert gwei_to_wei(1) == GWEI == 10**9

    def test_fractional_ether_from_string_is_exact(self):
        assert ether_to_wei("0.01") == 10**16

    def test_paper_budget(self):
        # The paper's total budget is 0.01 ETH.
        assert ether_to_wei("0.01") == 10_000_000_000_000_000

    def test_wei_to_ether_roundtrip(self):
        assert wei_to_ether(ether_to_wei("1.5")) == Decimal("1.5")

    def test_decimal_input(self):
        assert ether_to_wei(Decimal("2.000000000000000001")) == 2 * ETHER + 1


class TestFormatting:
    def test_format_matches_paper_style(self):
        # Table 1 shows eight decimal places, e.g. 0.00162366.
        assert format_ether(1_623_660_000_000_000) == "0.00162366"

    def test_format_zero(self):
        assert format_ether(0) == "0.00000000"
