"""Shared low-level utilities: hashing, encodings, serialization, units.

These helpers are deliberately dependency-free (standard library + NumPy
only) and are used by every other subsystem.  They are re-exported here for
convenience:

>>> from repro.utils import keccak256, to_hex, ether_to_wei
"""

from repro.utils.clock import SimulatedClock
from repro.utils.encoding import (
    b32_decode,
    b32_encode,
    b58_decode,
    b58_encode,
    from_hex,
    to_hex,
)
from repro.utils.hashing import hash_json, keccak256, sha256
from repro.utils.rng import derive_seed, make_rng
from repro.utils.serialization import canonical_dumps, canonical_loads, rlp_encode
from repro.utils.units import (
    ETHER,
    GWEI,
    WEI,
    ether_to_wei,
    format_ether,
    gwei_to_wei,
    wei_to_ether,
)

__all__ = [
    "SimulatedClock",
    "b32_decode",
    "b32_encode",
    "b58_decode",
    "b58_encode",
    "from_hex",
    "to_hex",
    "hash_json",
    "keccak256",
    "sha256",
    "derive_seed",
    "make_rng",
    "canonical_dumps",
    "canonical_loads",
    "rlp_encode",
    "ETHER",
    "GWEI",
    "WEI",
    "ether_to_wei",
    "format_ether",
    "gwei_to_wei",
    "wei_to_ether",
]
