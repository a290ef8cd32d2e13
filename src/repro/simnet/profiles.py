"""Named network profiles for scenarios.

The seed models an ideal campus LAN: zero latency, infinite bandwidth, no
loss (transfer *time* is accounted separately by the Fig. 7 latency model).
Scenario profiles put the network itself in the loop: block exchange and
mempool submissions experience per-message latency, bandwidth limits, jitter
and drops, all drawn from one seeded generator.

``make_network("ideal", ...)`` returns ``None`` -- the swarm and the chain
node treat an absent network model as the seed's zero-cost transport, which
is what keeps the default scenario's Fig. 4-7 numbers bit-identical.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import SimulationError
from repro.simnet.netmodel import LinkProfile, NetworkModel
from repro.utils.rng import SeedLike

NETWORK_PROFILES: Dict[str, Optional[LinkProfile]] = {
    # The seed's transport: no network model at all.
    "ideal": None,
    # A realistic campus LAN: sub-millisecond latency, 1 Gbit/s, no loss.
    "lan": LinkProfile(latency_seconds=0.0005,
                       bandwidth_bytes_per_second=125_000_000.0),
    # Cross-region WAN: tens of ms, 100 Mbit/s, light jitter, rare loss.
    "wan": LinkProfile(latency_seconds=0.04,
                       bandwidth_bytes_per_second=12_500_000.0,
                       jitter_seconds=0.01,
                       drop_probability=0.01),
    # A congested/lossy WAN: high latency and jitter, 20 Mbit/s, 15% loss.
    "lossy": LinkProfile(latency_seconds=0.08,
                         bandwidth_bytes_per_second=2_500_000.0,
                         jitter_seconds=0.04,
                         drop_probability=0.15),
    # A barely-usable link: cellular-grade latency and 35% loss.
    "flaky": LinkProfile(latency_seconds=0.25,
                         bandwidth_bytes_per_second=500_000.0,
                         jitter_seconds=0.15,
                         drop_probability=0.35),
}


#: What a profile's senders wait for a lost message, and how often they resend.
RETRY_TIMEOUT_SECONDS = 1.0
MAX_RETRANSMISSIONS = 5


def make_network(profile_name: str, seed: SeedLike = 0) -> Optional[NetworkModel]:
    """Build a :class:`NetworkModel` for a named profile (None for "ideal")."""
    if profile_name not in NETWORK_PROFILES:
        raise SimulationError(
            f"unknown network profile {profile_name!r}; "
            f"choose from {sorted(NETWORK_PROFILES)}")
    profile = NETWORK_PROFILES[profile_name]
    if profile is None:
        return None
    return NetworkModel(default_profile=profile, seed=seed,
                        retry_timeout_seconds=RETRY_TIMEOUT_SECONDS,
                        max_retransmissions=MAX_RETRANSMISSIONS)
