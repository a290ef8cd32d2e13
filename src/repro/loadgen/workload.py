"""Request mixes and the simulated client population.

A :class:`RequestMix` is a weighted choice over the operation kinds the
driver knows how to fire against the JSON-RPC gateway:

========== ==================================================================
transfer   sign a value transfer and broadcast it (``eth_sendRawTransaction``)
read       a chain read (``eth_getBalance`` / ``eth_blockNumber``)
ipfs       fetch a pre-seeded object (``ipfs_cat``), Zipf-skewed over CIDs
analytics  an analytical read against the columnar replica
           (``analytics_leaderboard`` / ``analytics_feeSummary`` /
           ``analytics_chainStatistics``); requires an attached replica
           (``repro.analytics``), otherwise re-drawn as a read
========== ==================================================================

The client population is a deterministic set of labeled key pairs, funded by
the faucet, whose activity is Zipf-skewed: a few hot senders produce most of
the traffic, as in any real marketplace.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List

from repro.chain.account import Address
from repro.chain.keys import KeyPair
from repro.errors import SimulationError
from repro.utils.rng import SeedLike, make_rng

OP_KINDS = ("transfer", "read", "ipfs", "analytics")

DEFAULT_MIX: Dict[str, float] = {"transfer": 0.5, "read": 0.35, "ipfs": 0.15}


class RequestMix:
    """A normalized weighted choice over operation kinds."""

    def __init__(self, weights: Dict[str, float], seed: SeedLike = None) -> None:
        unknown = sorted(set(weights) - set(OP_KINDS))
        if unknown:
            raise SimulationError(
                f"unknown operation kinds {unknown}; choose from {sorted(OP_KINDS)}")
        positive = {kind: float(weight) for kind, weight in weights.items()
                    if weight > 0}
        if not positive:
            raise SimulationError("the request mix needs at least one positive weight")
        if any(weight < 0 for weight in weights.values()):
            raise SimulationError(f"mix weights must be non-negative: {weights}")
        total = sum(positive.values())
        self.weights = {kind: weight / total for kind, weight in sorted(positive.items())}
        self._kinds = list(self.weights)
        self._cdf = list(accumulate(self.weights[kind] for kind in self._kinds))
        self._rng = make_rng(seed, "request-mix")

    def sample(self) -> str:
        """Draw one operation kind."""
        index = bisect_right(self._cdf, self._rng.random())
        return self._kinds[min(index, len(self._kinds) - 1)]


class ClientPool:
    """A deterministic population of funded client key pairs.

    Keys derive from labels (``<label_prefix>-client-<i>``) so the same
    client count reproduces the same addresses -- and with them the same
    transaction hashes -- across runs.
    """

    def __init__(self, size: int, label_prefix: str) -> None:
        if size <= 0:
            raise SimulationError(f"the client pool needs at least one client, got {size}")
        self.size = int(size)
        self.keypairs: List[KeyPair] = [
            KeyPair.from_label(f"{label_prefix}-client-{index}")
            for index in range(self.size)
        ]
        self.addresses: List[Address] = [
            Address(keypair.address) for keypair in self.keypairs
        ]
        #: Client-side nonce counters (incremented only on accepted submits,
        #: so a rejected submission retries the same nonce and the per-sender
        #: nonce sequence never gaps).
        self.next_nonce: List[int] = [0] * self.size

    def fund(self, faucet, amount_wei: int) -> None:
        """Drip ``amount_wei`` to every client."""
        for keypair in self.keypairs:
            faucet.drip(keypair.address, amount_wei)
