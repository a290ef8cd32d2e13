"""Crash-recovery integration: the ``kill -9`` acceptance test.

A full marketplace run is persisted through a ``LogBackend``; the process's
in-memory world is then discarded and a node is recovered purely from the
store directory.  The recovered node must reach the *identical* chain head
hash and state digest, serve the same chain-derived figures (the Fig. 5 gas
table and Table 1 payments), and keep operating (block production resumes,
pending transactions survive in the mempool).

When ``REPRO_RECOVERY_STORE_DIR`` is set (CI does this), the store is
written there so a failing run uploads the directory as a build artifact.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.chain import EthereumNode, Faucet, KeyPair
from repro.contracts import default_registry
from repro.storage import (
    StorageConfig,
    StorageEngine,
    recover_node,
    state_digest,
    verify_store,
)
from repro.system import build_environment, quick_config, run_marketplace
from repro.system.artifacts import report_to_dict
from repro.system.costs import build_gas_cost_report
from repro.utils.serialization import reply_json
from repro.utils.units import ether_to_wei


def _store_dir(tmp_path: Path, name: str) -> str:
    root = os.environ.get("REPRO_RECOVERY_STORE_DIR")
    base = Path(root) if root else tmp_path
    target = base / name
    if target.exists():
        # A prior pytest invocation's store (the env-var path is constant):
        # a fresh chain refuses a used store, so start clean every run.
        import shutil

        shutil.rmtree(target)
    target.mkdir(parents=True, exist_ok=True)
    return str(target)


TINY = dict(num_owners=2, num_samples=400, local_epochs=1)


def served(obj, *args) -> bytes:
    """The reply text a node serves for a chain object."""
    return reply_json(obj.to_dict(*args)).encode()


def served_replies(chain):
    """Served reply bytes by hash: each canonical block in both transaction
    forms, and each included transaction with its receipt."""
    replies = {}
    for block in chain.iter_blocks():
        replies[block.hash] = (served(block, False), served(block, True))
        for tx in block.transactions:
            replies[tx.hash_hex] = (served(chain.get_transaction(tx.hash_hex)),
                                    served(chain.get_receipt(tx.hash_hex)))
    return replies


@pytest.fixture(scope="module")
def persisted_run(tmp_path_factory):
    """One tiny marketplace run persisted to disk, plus its ground truth."""
    directory = _store_dir(tmp_path_factory.mktemp("recovery"), "marketplace-store")
    config = StorageConfig(backend="log", directory=directory,
                           snapshot_interval_blocks=4)
    env = build_environment(quick_config(**TINY), storage=config)
    report = run_marketplace(environment=env)
    truth = {
        "head_hash": env.node.chain.latest_block.hash,
        "height": env.node.chain.height,
        "state_digest": state_digest(env.node.chain.state),
        "payments": dict(report.payments_wei),
        "gas_rows": {name: (row.count, row.mean_gas, row.total_fee_wei)
                     for name, row in report.gas_report.rows.items()},
        "report": report_to_dict(report),
        "replies": served_replies(env.node.chain),
    }
    env.storage.close()
    return directory, truth


@pytest.fixture()
def recovered(persisted_run):
    directory, truth = persisted_run
    node = recover_node(StorageConfig(backend="log", directory=directory),
                        backend=default_registry())
    yield node, truth
    node.storage.close()


class TestKillMinusNineRecovery:
    def test_identical_chain_head_hash(self, recovered):
        node, truth = recovered
        assert node.chain.height == truth["height"]
        assert node.chain.latest_block.hash == truth["head_hash"]

    def test_identical_state_digest(self, recovered):
        node, truth = recovered
        assert state_digest(node.chain.state) == truth["state_digest"]

    def test_snapshot_plus_replay_was_exercised(self, persisted_run):
        directory, truth = persisted_run
        engine = StorageEngine(StorageConfig(backend="log", directory=directory))
        pointer = engine.snapshots.latest_pointer()
        # interval 4 with a ~7-block run: a snapshot exists strictly below
        # the head, so recovery used restore + replay, not replay alone.
        assert pointer is not None
        assert 0 < pointer["height"] < truth["height"]
        assert len(engine.wal.archived_block_numbers()) == pointer["height"]
        engine.close()

    def test_recovered_chain_serves_the_same_fig5_gas_table(self, recovered):
        node, truth = recovered
        recovered_rows = {
            name: (row.count, row.mean_gas, row.total_fee_wei)
            for name, row in build_gas_cost_report(node.chain).rows.items()
        }
        assert recovered_rows == truth["gas_rows"]

    def test_recovered_chain_serves_the_same_payment_table(self, recovered):
        node, truth = recovered
        task_accounts = [
            account for account in node.chain.state.accounts()
            if account.is_contract and type(account.contract).__name__ == "FLTask"
        ]
        assert len(task_accounts) == 1
        payments = task_accounts[0].storage.get("payments", {})
        assert {k: int(v) for k, v in payments.items()} == truth["payments"]

    def test_block_production_resumes_after_recovery(self, persisted_run, tmp_path):
        # Recover into a *copy*: new blocks are durably WAL-logged now, and
        # the shared module store must stay at the ground-truth head.
        import shutil

        directory, truth = persisted_run
        clone = tmp_path / "store-clone"
        shutil.copytree(directory, clone)
        node = recover_node(StorageConfig(backend="log", directory=str(clone)),
                            backend=default_registry())
        keys = KeyPair.from_label("post-recovery-account")
        Faucet(node).drip(keys.address, ether_to_wei(1))
        receipt = node.wait_for_receipt(
            node.sign_and_send(keys, to="0x" + "42" * 20, value=1234))
        assert receipt.status
        assert node.chain.height > truth["height"]
        assert node.get_balance("0x" + "42" * 20) == 1234
        node.storage.close()

    def test_served_replies_match_the_pre_crash_bytes(self, recovered):
        """Snapshot load plus WAL replay rebuilds every block, receipt and
        transaction; each renders byte for byte the text the dead process
        served."""
        node, truth = recovered
        assert served_replies(node.chain) == truth["replies"]

    def test_verify_store_matches_ground_truth(self, persisted_run):
        directory, truth = persisted_run
        result = verify_store(StorageConfig(backend="log", directory=directory),
                              backend=default_registry())
        assert result["head_hash"] == truth["head_hash"]
        assert result["state_digest"] == truth["state_digest"]


class TestMemoryBackendInvisibility:
    def test_default_memory_engine_is_bit_for_bit_identical(self, persisted_run):
        """The log-backed run and a default (memory) run report identically."""
        _, truth = persisted_run
        memory_report = run_marketplace(quick_config(**TINY))
        assert report_to_dict(memory_report) == truth["report"]


class TestMempoolRecovery:
    def test_pending_transactions_survive_the_crash(self, tmp_path):
        directory = _store_dir(tmp_path, "mempool-store")
        engine = StorageEngine(StorageConfig(backend="log", directory=directory))
        node = EthereumNode(backend=default_registry(), storage=engine)
        keys = KeyPair.from_label("pending-sender")
        Faucet(node).drip(keys.address, ether_to_wei(1))
        tx_hash = node.sign_and_send(keys, to="0x" + "33" * 20, value=777)
        assert len(node.chain.mempool) == 1  # submitted, never mined
        before = served(node.chain.get_transaction(tx_hash))
        engine.close()

        revived = recover_node(StorageConfig(backend="log", directory=directory),
                               backend=default_registry())
        assert len(revived.chain.mempool) == 1
        assert served(revived.chain.get_transaction(tx_hash)) == before
        receipt = revived.wait_for_receipt(tx_hash)
        assert receipt.status
        assert revived.get_balance("0x" + "33" * 20) == 777
        revived.storage.close()

    def test_included_transactions_are_not_requeued(self, tmp_path):
        directory = _store_dir(tmp_path, "included-store")
        engine = StorageEngine(StorageConfig(backend="log", directory=directory))
        node = EthereumNode(backend=default_registry(), storage=engine)
        keys = KeyPair.from_label("included-sender")
        Faucet(node).drip(keys.address, ether_to_wei(1))
        node.wait_for_receipt(node.sign_and_send(keys, to="0x" + "44" * 20, value=5))
        engine.close()

        revived = recover_node(StorageConfig(backend="log", directory=directory),
                               backend=default_registry())
        assert len(revived.chain.mempool) == 0
        assert revived.get_balance("0x" + "44" * 20) == 5
        revived.storage.close()

    def test_stale_pending_transaction_is_dropped_not_fatal(self, tmp_path):
        """Recovery must survive a pending tx invalidated by later history."""
        directory = _store_dir(tmp_path, "stale-pending-store")
        engine = StorageEngine(StorageConfig(backend="log", directory=directory))
        node = EthereumNode(backend=default_registry(), storage=engine)
        keys = KeyPair.from_label("stale-sender")
        Faucet(node).drip(keys.address, ether_to_wei(1))
        # Pending tx A needs nearly the whole balance...
        from repro.chain.transaction import Transaction
        from repro.chain.account import Address
        tx_a = Transaction(sender=Address(keys.address), to=Address("0x" + "aa" * 20),
                           value=ether_to_wei(1) - 25_000 * 10**9, nonce=0,
                           gas_limit=21_000, gas_price=10**9)
        tx_a.sign(keys)
        node.send_transaction(tx_a)
        # ...then a mined tx B drains the sender below A's requirements.
        tx_b = Transaction(sender=Address(keys.address), to=Address("0x" + "bb" * 20),
                           value=ether_to_wei(1) - 25_000 * 10**9, nonce=0,
                           gas_limit=21_000, gas_price=10**9)
        tx_b.sign(keys)
        node.send_transaction(tx_b)
        node.chain.mempool.remove(tx_a.hash_hex)  # A stays only in the WAL
        node.wait_for_receipt(tx_b.hash_hex)
        head = node.chain.latest_block.hash
        engine.close()

        revived = recover_node(StorageConfig(backend="log", directory=directory),
                               backend=default_registry())
        assert revived.chain.latest_block.hash == head
        assert revived.chain.dropped_pending_on_recovery == 1
        assert len(revived.chain.mempool) == 0
        revived.storage.close()

    def test_tampered_snapshot_state_fails_recovery_loudly(self, tmp_path):
        """A flipped balance inside the snapshot must not restore silently."""
        from repro.errors import StorageCorruptionError
        from repro.storage.snapshot import SNAPSHOT_NAMESPACE

        directory = _store_dir(tmp_path, "tampered-snapshot-store")
        engine = StorageEngine(StorageConfig(backend="log", directory=directory,
                                             snapshot_interval_blocks=1))
        node = EthereumNode(backend=default_registry(), storage=engine)
        keys = KeyPair.from_label("tamper-sender")
        Faucet(node).drip(keys.address, ether_to_wei(1))
        node.wait_for_receipt(node.sign_and_send(keys, to="0x" + "cc" * 20, value=5))
        key = engine.snapshots.latest_pointer()["key"]
        blob = engine.backend.get_blob(SNAPSHOT_NAMESPACE, key)
        tampered = blob.replace(b'"balance":5,', b'"balance":6,')
        assert tampered != blob, "test setup: balance literal not found"
        engine.backend.put_blob(SNAPSHOT_NAMESPACE, key, tampered)
        engine.close()

        with pytest.raises(StorageCorruptionError, match="checksum"):
            recover_node(StorageConfig(backend="log", directory=directory),
                         backend=default_registry())
