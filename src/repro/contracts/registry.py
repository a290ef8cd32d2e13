"""The default contract registry used by nodes in examples and experiments."""

from __future__ import annotations

from repro.contracts.cid_storage import CidStorage
from repro.contracts.fl_task import FLTask
from repro.contracts.framework import ContractRegistry


def default_registry() -> ContractRegistry:
    """Return a registry with every contract shipped by this package."""
    registry = ContractRegistry()
    registry.register(CidStorage)
    registry.register(FLTask)
    return registry
