"""A testnet faucet.

On Sepolia, participants obtain test ETH from public faucets.  The simulated
faucet simply credits balances in the world state (it mints, as testnet
faucets effectively do from the user's perspective) and keeps a record of the
drips for auditability in experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.account import Address
from repro.chain.node import EthereumNode
from repro.utils.units import ether_to_wei


#: What :meth:`Faucet.drip` credits when the caller names no amount: one ether.
DRIP_WEI = ether_to_wei("1")


@dataclass
class Faucet:
    """Credits test ETH to accounts on the simulated chain."""

    node: EthereumNode

    def drip(self, address: Address | str, amount_wei: int | None = None) -> int:
        """Credit ``amount_wei`` (default one ether) to ``address``."""
        amount = DRIP_WEI if amount_wei is None else int(amount_wei)
        if amount <= 0:
            raise ValueError(f"drip amount must be positive, got {amount}")
        # The node mints through its chain (not the raw state), so the credit
        # lands in the write-ahead log and survives a crash/recovery cycle; a
        # cluster facade fans the mint out to every replica.
        self.node.mint(Address(address), amount)
        return amount
