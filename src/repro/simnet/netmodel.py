"""Per-link network models: latency, bandwidth, jitter, drops, partitions.

One :class:`NetworkModel` instance can serve both transports of the stack:

* the IPFS :class:`~repro.ipfs.swarm.Swarm` consults it during block
  exchange (``fetch_block``): unreachable providers are skipped, dropped
  requests are retried with a timeout penalty, and successful transfers
  advance the shared clock by the link's transfer time;
* the chain node's transaction ingress (:class:`~repro.chain.node.EthereumNode`
  with a ``network``) delays and retransmits mempool submissions the same way.

Endpoints are plain strings (IPFS peer ids, wallet addresses, or the special
:data:`CHAIN_ENDPOINT` for the RPC node).  Links are symmetric.  All
randomness (jitter, drops) flows from one seeded generator, so a scenario
replays identically for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.utils.rng import SeedLike, make_rng

CHAIN_ENDPOINT = "chain-rpc"
"""Endpoint name the chain node uses for its side of every ingress link."""


@dataclass(frozen=True)
class LinkProfile:
    """Static characteristics of one (symmetric) network link."""

    latency_seconds: float = 0.0
    """One-way propagation delay added to every message."""

    bandwidth_bytes_per_second: Optional[float] = None
    """Serialisation rate; ``None`` models an infinitely fast pipe."""

    jitter_seconds: float = 0.0
    """Uniform extra delay in ``[0, jitter_seconds]`` drawn per message."""

    drop_probability: float = 0.0
    """Probability that one message transmission is lost."""

    def __post_init__(self) -> None:
        if self.latency_seconds < 0:
            raise ValueError(f"latency must be non-negative, got {self.latency_seconds}")
        if self.jitter_seconds < 0:
            raise ValueError(f"jitter must be non-negative, got {self.jitter_seconds}")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1), got {self.drop_probability}")
        if self.bandwidth_bytes_per_second is not None and self.bandwidth_bytes_per_second <= 0:
            raise ValueError("bandwidth must be positive (or None for infinite)")


@dataclass
class NetworkStats:
    """Counters a scenario report reads off the network model."""

    messages: int = 0
    dropped: int = 0
    bytes_moved: int = 0
    delay_seconds: float = 0.0
    retransmissions: int = 0

    def to_dict(self) -> dict:
        """JSON-friendly counter dump for scenario reports."""
        return {
            "messages": self.messages,
            "dropped": self.dropped,
            "bytes_moved": self.bytes_moved,
            "delay_seconds": round(self.delay_seconds, 3),
            "retransmissions": self.retransmissions,
        }


@dataclass(frozen=True)
class Delivery:
    """Outcome of one message delivery attempt (see ``delivery_delay``)."""

    delivered: bool
    delay_seconds: float


def _link_key(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class NetworkModel:
    """Symmetric per-link profiles plus partition/heal dynamics."""

    def __init__(self, default_profile: Optional[LinkProfile] = None,
                 seed: SeedLike = 0, retry_timeout_seconds: float = 1.0,
                 max_retransmissions: int = 3) -> None:
        self.default_profile = default_profile or LinkProfile()
        self.retry_timeout_seconds = float(retry_timeout_seconds)
        self.max_retransmissions = int(max_retransmissions)
        self._links: Dict[Tuple[str, str], LinkProfile] = {}
        self._groups: Optional[Dict[str, int]] = None
        self._rng = make_rng(seed, "netmodel")
        self.stats = NetworkStats()

    # -- link configuration ----------------------------------------------------

    def set_link(self, a: str, b: str, profile: LinkProfile) -> None:
        """Override the profile of the (symmetric) link between ``a`` and ``b``."""
        self._links[_link_key(a, b)] = profile

    def profile_for(self, a: str, b: str) -> LinkProfile:
        """The profile governing the link between ``a`` and ``b``."""
        return self._links.get(_link_key(a, b), self.default_profile)

    # -- partitions ------------------------------------------------------------

    def partition(self, groups: Sequence[Iterable[str]]) -> None:
        """Split the network: endpoints in different groups cannot reach each
        other; endpoints not listed in any group remain reachable by all."""
        assignment: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for endpoint in group:
                assignment[endpoint] = index
        self._groups = assignment

    def heal(self) -> None:
        """Remove the partition; every endpoint can reach every other again."""
        self._groups = None

    @property
    def partitioned(self) -> bool:
        """Whether a partition is currently in force."""
        return self._groups is not None

    def can_reach(self, a: str, b: str) -> bool:
        """Whether ``a`` and ``b`` are on the same side of any partition."""
        if self._groups is None:
            return True
        group_a = self._groups.get(a)
        group_b = self._groups.get(b)
        if group_a is None or group_b is None:
            return True
        return group_a == group_b

    # -- message dynamics ------------------------------------------------------

    def transfer_seconds(self, a: str, b: str, num_bytes: int = 0) -> float:
        """Delay for one successful ``num_bytes`` message over the link
        (latency + jitter draw + serialisation time); records stats."""
        profile = self.profile_for(a, b)
        delay = profile.latency_seconds
        if profile.jitter_seconds > 0.0:
            delay += float(self._rng.uniform(0.0, profile.jitter_seconds))
        if profile.bandwidth_bytes_per_second is not None and num_bytes > 0:
            delay += num_bytes / profile.bandwidth_bytes_per_second
        self.stats.messages += 1
        self.stats.bytes_moved += max(0, int(num_bytes))
        self.stats.delay_seconds += delay
        return delay

    def should_drop(self, a: str, b: str) -> bool:
        """Draw one loss event for a message over the link; records stats."""
        profile = self.profile_for(a, b)
        if profile.drop_probability <= 0.0:
            return False
        dropped = bool(self._rng.random() < profile.drop_probability)
        if dropped:
            self.stats.dropped += 1
        return dropped

    def delivery_delay(self, a: str, b: str, num_bytes: int = 0) -> "Delivery":
        """Attempt to deliver a message with retransmissions.

        Each lost transmission costs :attr:`retry_timeout_seconds`; after
        :attr:`max_retransmissions` losses the delivery fails.  The returned
        :class:`Delivery` carries the simulated seconds the sender spent
        either way -- a *failed* delivery still burned every timeout, and
        callers must charge that time to their clock before giving up or
        re-routing.  Unreachable (partitioned) endpoints fail instantly,
        like a refused connection.
        """
        if not self.can_reach(a, b):
            return Delivery(delivered=False, delay_seconds=0.0)
        penalty = 0.0
        attempts = 0
        while self.should_drop(a, b):
            attempts += 1
            penalty += self.retry_timeout_seconds
            if attempts >= self.max_retransmissions:
                self.stats.retransmissions += attempts
                return Delivery(delivered=False, delay_seconds=penalty)
        self.stats.retransmissions += attempts
        return Delivery(delivered=True,
                        delay_seconds=penalty + self.transfer_seconds(a, b, num_bytes))
