"""The null facade is total.

Every hook an instrumented call site reaches through ``.obs`` exists on
both :class:`Observability` and :class:`NullObservability` and takes the
call sites' arguments, so a hook added to one facade and not the other
fails here instead of as an ``AttributeError`` in an unobserved run.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.analytics import AnalyticsFeeder
from repro.chain.chain import Blockchain
from repro.cluster import ChainCluster
from repro.obs import (
    NULL_OBSERVABILITY,
    NULL_SPAN,
    MetricsRegistry,
    NullObservability,
    Observability,
)
from repro.rpc import JsonRpcGateway
from repro.storage import StorageEngine

TX = "0x" + "ab" * 32

#: hook -> (positional args, keyword args) as the call sites spell them.
HOOKS = {
    "tx_span": (("tx.execute", TX), {"replica": "replica-0", "link": False,
                                     "parent_id": None, "block": 3}),
    "end": ((NULL_SPAN,), {"status": "rejected"}),
    "span_context": ((NULL_SPAN,), {}),
    "event": (("chain.reorg",), {"abandoned": 1, "adopted": 2,
                                 "replica": None}),
    "phase": (("chain.verify",), {}),
    "observe_block_production": ((0.001,), {}),
    "attach_chain": ((Blockchain(), "replica-0"), {}),
}

#: Where ``.obs`` is reached, and how each file spells the receiver
#: (``chain.py`` binds ``obs = self.obs`` once per method).
CALL_SITES = {
    "chain/chain.py": r"\bobs\.(\w+)\(",
    "cluster/cluster.py": r"self\.obs\.(\w+)\(",
    "cluster/gossip.py": r"self\.obs\.(\w+)\(",
    "cluster/replica.py": r"self\.obs\.(\w+)\(",
    "analytics/feeder.py": r"self\.obs\.(\w+)\(",
    "rpc/gateway.py": r"self\.obs\.(\w+)\(",
}


@pytest.mark.parametrize("hook", sorted(HOOKS))
def test_both_facades_take_the_call_sites_arguments(hook):
    args, kwargs = HOOKS[hook]
    getattr(Observability(MetricsRegistry()), hook)(*args, **kwargs)
    result = getattr(NULL_OBSERVABILITY, hook)(*args, **kwargs)
    if hook == "phase":
        with result:
            pass
    elif hook in ("tx_span", "end"):
        assert result is NULL_SPAN
    else:
        assert result is None


def test_the_table_is_the_null_facade_and_the_call_sites():
    assert {name for name in vars(NullObservability)
            if not name.startswith("_")} == set(HOOKS)
    src = Path(repro.__file__).parent
    used = set()
    for relative, pattern in CALL_SITES.items():
        used |= set(re.findall(pattern, (src / relative).read_text()))
    assert used == set(HOOKS)


def test_unobserved_components_share_the_one_stateless_object():
    gateway = JsonRpcGateway()
    gateway.attach_storage(StorageEngine())
    cluster = ChainCluster(2)
    holders = [Blockchain(), gateway, AnalyticsFeeder(StorageEngine().wal),
               cluster, cluster.gossip, *cluster.replicas,
               *(replica.chain for replica in cluster.replicas)]
    assert all(holder.obs is NULL_OBSERVABILITY for holder in holders)
    assert not hasattr(NULL_OBSERVABILITY, "__dict__")  # nowhere to record
