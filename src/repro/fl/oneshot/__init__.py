"""One-shot aggregation algorithms."""

from repro.fl.oneshot.base import AggregationResult, OneShotAggregator
from repro.fl.oneshot.ensemble import EnsembleAggregator
from repro.fl.oneshot.mean import MeanAggregator
from repro.fl.oneshot.pfnm import PFNMAggregator, PFNMConfig


#: Every one-shot aggregator by name: ``"pfnm"`` (the paper's default),
#: ``"mean"`` and ``"ensemble"``.
AGGREGATORS = {
    "pfnm": PFNMAggregator,
    "mean": MeanAggregator,
    "ensemble": EnsembleAggregator,
}


def make_aggregator(name: str, **kwargs) -> OneShotAggregator:
    """Build a one-shot aggregator by (case-insensitive) name; see :data:`AGGREGATORS`."""
    key = name.lower()
    if key not in AGGREGATORS:
        raise ValueError(
            f"unknown one-shot aggregator {name!r}; expected one of {sorted(AGGREGATORS)}"
        )
    return AGGREGATORS[key](**kwargs)


__all__ = [
    "AGGREGATORS",
    "AggregationResult",
    "OneShotAggregator",
    "EnsembleAggregator",
    "MeanAggregator",
    "PFNMAggregator",
    "PFNMConfig",
    "make_aggregator",
]
