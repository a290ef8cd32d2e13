"""Seed management helpers.

Every stochastic component (data generation, partitioning, weight
initialization, training shuffles, Monte-Carlo Shapley) receives an explicit
NumPy :class:`~numpy.random.Generator`.  :func:`derive_seed` deterministically
derives child seeds from a parent seed and a string label so that experiments
are reproducible yet components do not share generator state.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:
    import numpy as np

SeedLike = Union[int, "np.random.Generator", None]


def derive_seed(base_seed: int, label: str) -> int:
    """Derive a 32-bit child seed from ``base_seed`` and a ``label``.

    The derivation hashes the pair so that distinct labels yield independent
    streams and the mapping is stable across runs and platforms.
    """
    digest = hashlib.sha256(f"{base_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def make_rng(seed: SeedLike = None, label: Optional[str] = None) -> np.random.Generator:
    """Build a NumPy Generator from an int seed, an existing Generator or None.

    If ``label`` is given together with an integer seed, the child seed is
    derived with :func:`derive_seed`.  NumPy is imported here, on the first
    draw, so a process that never draws (``repro serve``) never loads it.
    """
    import numpy as np

    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.default_rng()
    if label is not None:
        seed = derive_seed(int(seed), label)
    return np.random.default_rng(int(seed))
