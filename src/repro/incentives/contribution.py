"""Contribution measures over a set of model updates.

All measures are defined in terms of a *value function* ``v(S)``: the test
accuracy of the aggregate built from the subset ``S`` of owners.  The caller
provides an ``aggregate_fn(subset_indices) -> accuracy``; in OFL-W3 this is
"re-run the one-shot aggregator on that subset and evaluate on the buyer's
test set".

* :func:`leave_one_out` -- the paper's mechanism: owner *i*'s contribution is
  ``v(N) - v(N \\ {i})``.  Figure 6 of the paper plots ``v(N \\ {i})`` for each
  *i* (high drop accuracy = low contribution).
* :func:`shapley_monte_carlo` -- permutation-sampling approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import IncentiveError
from repro.utils.rng import make_rng

ValueFunction = Callable[[Tuple[int, ...]], float]

@dataclass
class ContributionReport:
    """Per-owner contribution scores plus the evaluations that produced them."""

    method: str
    scores: Dict[int, float]
    full_value: float
    drop_values: Dict[int, float] = field(default_factory=dict)
    num_evaluations: int = 0

    def least_useful(self) -> int:
        """Index of the owner with the smallest contribution (paper: model 7)."""
        return min(self.scores.items(), key=lambda item: item[1])[0]

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "method": self.method,
            "full_value": self.full_value,
            "scores": {str(k): v for k, v in self.scores.items()},
            "drop_values": {str(k): v for k, v in self.drop_values.items()},
            "num_evaluations": self.num_evaluations,
        }


class _CachedValue:
    """Memoizes the value function over subsets (sorted tuples of indices)."""

    def __init__(self, value_fn: ValueFunction) -> None:
        self._value_fn = value_fn
        self._cache: Dict[Tuple[int, ...], float] = {}
        self.calls = 0

    def __call__(self, subset: Sequence[int]) -> float:
        key = tuple(sorted(subset))
        if key not in self._cache:
            self.calls += 1
            self._cache[key] = float(self._value_fn(key)) if key else 0.0
        return self._cache[key]


def _validate(num_owners: int) -> None:
    if num_owners <= 0:
        raise IncentiveError(f"need at least one owner, got {num_owners}")


def leave_one_out(
    num_owners: int, value_fn: ValueFunction, full_value: Optional[float] = None
) -> ContributionReport:
    """Leave-one-out contributions: ``v(N) - v(N without i)`` for each owner.

    A caller that has already evaluated the grand coalition passes ``v(N)`` as
    ``full_value`` and ``value_fn`` is then asked for the ``N`` drops only.
    """
    _validate(num_owners)
    cached = _CachedValue(value_fn)
    everyone = tuple(range(num_owners))
    if full_value is not None:
        # Evaluated by the caller: still one of the N + 1 evaluations the
        # Fig. 7 timing model is fed.
        cached._cache[everyone] = float(full_value)
        cached.calls += 1
    full_value = cached(everyone)
    scores: Dict[int, float] = {}
    drop_values: Dict[int, float] = {}
    for owner in range(num_owners):
        subset = tuple(i for i in everyone if i != owner)
        drop_value = cached(subset)
        drop_values[owner] = drop_value
        scores[owner] = full_value - drop_value
    return ContributionReport(
        method="leave_one_out",
        scores=scores,
        full_value=full_value,
        drop_values=drop_values,
        num_evaluations=cached.calls,
    )


def shapley_monte_carlo(
    num_owners: int,
    value_fn: ValueFunction,
    num_permutations: int = 200,
    rng=None,
) -> ContributionReport:
    """Monte-Carlo Shapley: average marginals over random permutations."""
    _validate(num_owners)
    if num_permutations <= 0:
        raise IncentiveError(f"num_permutations must be positive, got {num_permutations}")
    cached = _CachedValue(value_fn)
    generator = make_rng(rng)
    everyone = tuple(range(num_owners))
    full_value = cached(everyone)
    totals = {owner: 0.0 for owner in range(num_owners)}
    for _ in range(num_permutations):
        order = generator.permutation(num_owners)
        prefix: List[int] = []
        previous_value = 0.0
        for owner in order:
            prefix.append(int(owner))
            current_value = cached(tuple(prefix))
            totals[int(owner)] += current_value - previous_value
            previous_value = current_value
    scores = {owner: total / num_permutations for owner, total in totals.items()}
    return ContributionReport(
        method="shapley_monte_carlo",
        scores=scores,
        full_value=full_value,
        num_evaluations=cached.calls,
    )
