"""The null chain store is total.

Every hook a call site reaches through a chain's ``store`` exists on both
:class:`ChainStore` and :class:`NullChainStore` and takes the call sites'
arguments, so a hook added to one store and not the other fails here
instead of as an ``AttributeError`` in a run without a disk.  The
``chain.persist`` phase is timed by the store, so only a store-backed run
reports it.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.chain import EthereumNode, Faucet, KeyPair
from repro.chain.chain import NULL_CHAIN_STORE, Blockchain, NullChainStore
from repro.storage import ChainStore, StorageEngine
from repro.system.stack import build_stack
from repro.utils.units import ether_to_wei

SENDER = KeyPair.from_label("null-store-sender")
RECIPIENT = "0x" + "99" * 20


def _transfer():
    node = EthereumNode()
    Faucet(node).drip(SENDER.address, ether_to_wei(1))
    tx_hash = node.sign_and_send(SENDER, to=RECIPIENT, value=1)
    return node.chain.get_transaction(tx_hash)


#: hook -> (positional args, keyword args) as the call sites spell them.
HOOKS = {
    "attach": ((Blockchain(),), {}),
    "record_mint": ((str(SENDER.address), 5), {}),
    "record_transaction": ((Blockchain(), _transfer()), {}),
    "record_block": ((Blockchain(), Blockchain().latest_block), {}),
    "snapshot": ((Blockchain(),), {}),
}

#: Where a chain's store is reached, and how each file spells the receiver.
CALL_SITES = {
    "chain/chain.py": r"self\.store\.(\w+)\(",
    "cluster/forkchoice.py": r"chain\.store\.(\w+)\(",
    "cluster/replica.py": r"chain\.store\.(\w+)\(",
    "storage/engine.py": r"chain\.store\.(\w+)\(",
    "cli.py": r"chain\.store\.(\w+)\(",
}


def _chain_store() -> ChainStore:
    return Blockchain(store=StorageEngine().chain_store()).store


@pytest.mark.parametrize("hook", sorted(HOOKS))
def test_both_stores_take_the_call_sites_arguments(hook):
    args, kwargs = HOOKS[hook]
    getattr(_chain_store(), hook)(*args, **kwargs)
    assert getattr(NULL_CHAIN_STORE, hook)(*args, **kwargs) is None


def test_the_table_is_the_null_store_and_the_call_sites():
    assert {name for name in dir(NullChainStore)
            if not name.startswith("_")} == set(HOOKS) | {"engine"}
    src = Path(repro.__file__).parent
    used = set()
    for relative, pattern in CALL_SITES.items():
        used |= set(re.findall(pattern, (src / relative).read_text()))
    assert used == set(HOOKS)


def test_a_chain_without_a_disk_holds_the_null_store():
    node = EthereumNode()
    assert node.chain.store is NULL_CHAIN_STORE
    assert node.storage is None and NULL_CHAIN_STORE.engine is None


def _observed_phase_calls(stack):
    Faucet(stack.node).drip(SENDER.address, ether_to_wei(1))
    for _ in range(3):
        stack.node.sign_and_send(SENDER, to=RECIPIENT, value=1)
    stack.node.mine(2)
    return stack.obs.stats_dict()["phase_calls"]


def test_a_run_without_a_store_reports_no_persist_phase():
    phase_calls = _observed_phase_calls(build_stack(observability=True))
    assert "chain.verify" in phase_calls
    assert "chain.persist" not in phase_calls


def test_a_store_backed_run_times_each_logged_transaction_and_block():
    engine = StorageEngine()
    phase_calls = _observed_phase_calls(build_stack(storage=engine,
                                                    observability=True))
    logged = engine.wal.counts_by_kind()
    assert (logged["tx"], logged["block"]) == (3, 2)
    assert phase_calls["chain.persist"] == logged["tx"] + logged["block"]
