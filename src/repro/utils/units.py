"""Ether denomination conversions.

All on-chain balances, values and gas prices in :mod:`repro.chain` are held
as integer **wei** exactly as Ethereum does, so arithmetic is exact.  These
helpers convert between wei, gwei and ether and format amounts for reports
such as the payment table (Table 1 of the paper).
"""

from __future__ import annotations

from decimal import Decimal
from typing import Union

Number = Union[int, float, str, Decimal]

WEI = 1
GWEI = 10**9
ETHER = 10**18


def ether_to_wei(amount: Number) -> int:
    """Convert an ether amount (int/float/str/Decimal) into integer wei."""
    return int(Decimal(str(amount)) * ETHER)


def gwei_to_wei(amount: Number) -> int:
    """Convert a gwei amount into integer wei."""
    return int(Decimal(str(amount)) * GWEI)


def wei_to_ether(amount_wei: int) -> Decimal:
    """Convert integer wei into a :class:`~decimal.Decimal` ether amount."""
    return Decimal(amount_wei) / ETHER


def format_ether(amount_wei: int) -> str:
    """Format a wei amount as an ether string with eight decimals.

    Used by the payment-table report, matching the paper's ``0.00162366``
    style of presentation.
    """
    return f"{wei_to_ether(amount_wei):.8f}"
