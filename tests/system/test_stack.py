"""``repro.system.stack``: one construction site, one teardown.

Four pins.  (1) The construction matrix -- every combination of what a
caller may hang off a node either builds a stack that serves, mines to the
same head as the bare stack of its row and leaves no process behind, or is
refused with the one error.  This is the construction site of ROADMAP item
5's flag-lattice harness.  (2) ``replace_node`` re-points everything that
held the dead node.  (3) Nothing else under ``src/repro`` wires a stack.
(4) Every stack owns the one metrics registry, and what it samples is what
the stack holds when scraped -- not what it held when built.  (5) A server,
and every command that neither trains nor draws, imports no numpy.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import re
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

import repro
from repro.chain.account import Address
from repro.chain.keys import KeyPair
from repro.chain.node import EthereumNode
from repro.chain.transaction import Transaction
from repro.cluster import ClusterConfig
from repro.contracts.registry import default_registry
from repro.errors import ConfigError, StorageError
from repro.storage import StorageConfig, StorageEngine, recover_node
from repro.system.stack import build_stack
from repro.utils.units import ether_to_wei

SENDERS = [KeyPair.from_label(f"stack-matrix-{index}") for index in range(2)]
SINK = Address("0x" + "66" * 20)


def transfers():
    """Two transfers from each of the two senders, freshly signed."""
    return [Transaction(sender=Address(keypair.address), to=SINK, value=1,
                        nonce=nonce, gas_limit=21_000,
                        gas_price=10**9).sign(keypair)
            for keypair in SENDERS for nonce in range(2)]


def build_cell(tmp_path, *, cluster, storage, batch_verify, obs, analytics):
    return build_stack(
        cluster=ClusterConfig(replicas=3, seed=7) if cluster else None,
        storage={"none": None, "memory": StorageEngine(),
                 "log": StorageConfig(backend="log", directory=str(tmp_path))
                 }[storage],
        batch_verify=batch_verify, observability=obs, analytics=analytics)


def drive(stack):
    """Fund, submit and mine over the stack's own gateway; the head hash."""
    assert stack.rpc.eth.block_number == 0
    for keypair in SENDERS:
        stack.faucet.drip(keypair.address, ether_to_wei(1))
    hashes = [stack.rpc.eth.send_transaction(tx) for tx in transfers()]
    stack.rpc.call("evm_mine")
    if stack.cluster is not None:
        stack.cluster.converge()
    chain = stack.node.chain
    assert all(chain.get_receipt(tx_hash).status == 1 for tx_hash in hashes)
    return chain.latest_block.hash


def is_legal(cluster, storage, batch_verify, analytics):
    if cluster:
        return batch_verify is None
    return not (analytics and storage == "none")


CELLS = list(itertools.product(
    (False, True), ("none", "memory", "log"), (None, 0), (False, True),
    (False, True)))


class TestConstructionMatrix:
    @pytest.fixture(scope="class")
    def bare_heads(self, tmp_path_factory):
        """The head each row reaches with nothing attached."""
        heads = {}
        for cluster in (False, True):
            stack = build_cell(tmp_path_factory.mktemp("bare"), cluster=cluster,
                               storage="none", batch_verify=None, obs=False,
                               analytics=False)
            heads[cluster] = drive(stack)
            stack.close()
        return heads

    @pytest.mark.parametrize("cluster,storage,batch_verify,obs,analytics", CELLS)
    def test_every_cell_serves_or_is_refused(self, tmp_path, bare_heads, cluster,
                                             storage, batch_verify, obs,
                                             analytics):
        cell = dict(cluster=cluster, storage=storage, batch_verify=batch_verify,
                    obs=obs, analytics=analytics)
        if not is_legal(cluster, storage, batch_verify, analytics):
            with pytest.raises(ConfigError):
                build_cell(tmp_path, **cell)
            return
        stack = build_cell(tmp_path, **cell)
        try:
            assert drive(stack) == bare_heads[cluster]
            methods = set(stack.gateway.methods())
            assert ("storage_stats" in methods) == (storage != "none")
            assert (stack.engine is not None) == (storage != "none")
            assert any(name.startswith("obs_") for name in methods) == obs
            assert ("analytics_status" in methods) == analytics
            assert (stack.obs is not None) == obs
            if analytics:
                assert stack.gateway.analytics is stack.analytics
                assert stack.rpc.call("analytics_status")["transactions"] == 4
            if obs and analytics:
                snapshot = stack.registry.snapshot()
                assert snapshot["repro_analytics_lag_entries"]["series"][0][
                    "value"] == 0
            if batch_verify is not None:
                assert stack.node.chain.batchverify_stats()[
                    "deferred_admissions"] == 4
        finally:
            stack.close()
        assert multiprocessing.active_children() == []
        if storage == "log":
            # close() made the store durable: a second engine recovers it.
            recovered = recover_node(
                StorageConfig(backend="log", directory=str(tmp_path)),
                backend=default_registry())
            assert recovered.chain.latest_block.hash == bare_heads[cluster]

    def test_a_cluster_refuses_a_store_with_history_before_building_a_replica(self):
        engine = StorageEngine()
        stack = build_stack(storage=engine)
        stack.faucet.drip(SINK, ether_to_wei(1))
        stack.close()
        assert engine.holds_history()
        before = engine.describe()
        with mock.patch("repro.cluster.ChainCluster",
                        side_effect=AssertionError("a replica was built")):
            with pytest.raises(StorageError, match="a cluster opens only an empty store"):
                build_stack(storage=engine, cluster=ClusterConfig())
        assert engine.describe() == before
        # An empty store still opens for a cluster.
        build_stack(storage=StorageEngine(), cluster=ClusterConfig()).close()

    def test_negative_worker_count_is_the_same_error(self):
        with pytest.raises(ConfigError, match="batch_verify"):
            build_stack(batch_verify=-1)

    def test_close_stops_a_started_verify_pool_and_is_idempotent(self):
        stack = build_stack(batch_verify=2)
        keypairs = [KeyPair.from_label(f"stack-pool-{index}")
                    for index in range(4)]
        for keypair in keypairs:
            stack.faucet.drip(keypair.address, ether_to_wei(1))
            for nonce in range(10):
                stack.rpc.eth.send_transaction(Transaction(
                    sender=Address(keypair.address), to=SINK, value=1,
                    nonce=nonce, gas_limit=21_000,
                    gas_price=10**9).sign(keypair))
        stack.rpc.call("evm_mine")
        assert stack.node.chain.batchverify_stats()["verify_jobs_offloaded"] > 0
        assert multiprocessing.active_children()
        stack.close()
        stack.close()
        assert multiprocessing.active_children() == []


class TestReplaceNode:
    def test_everything_that_held_the_dead_node_is_repointed(self):
        stack = build_stack(storage=StorageEngine(), observability=True,
                            analytics=True)
        drive(stack)
        dead_feeder = stack.analytics
        dead_feeder.logs()
        dead_feeder.chain_statistics()
        assert dead_feeder.queries == 2
        balance = stack.rpc.eth.get_balance(SENDERS[0].address)

        recovered = EthereumNode(backend=default_registry(), clock=stack.clock,
                                 storage=stack.engine)
        collectors = list(stack.registry._collectors)
        stack.replace_node(recovered)

        # Metrics read through the stack: a restart registers nothing.
        assert stack.registry._collectors == collectors
        assert stack.node is recovered
        assert stack.gateway.eth.node is recovered
        assert stack.rpc.eth.get_balance(SENDERS[0].address) == balance
        fresh = KeyPair.from_label("stack-after-restart").address
        stack.faucet.drip(fresh, ether_to_wei(2))
        assert recovered.get_balance(fresh) == ether_to_wei(2)
        # The registry samples the live chain, not the dead one.
        recovered.mine(3)
        heights = stack.registry.snapshot()["repro_chain_height"]["series"]
        assert [row["value"] for row in heights] == [recovered.block_number]
        # A fresh feeder over the recovered WAL, lifetime counters carried.
        feeder = stack.analytics
        assert feeder is not dead_feeder
        assert recovered.chain.analytics is feeder
        assert stack.gateway.analytics is feeder
        assert feeder.obs is stack.obs
        assert feeder.queries == 2
        assert stack.rpc.call("analytics_status")["height"] == recovered.block_number
        queries = stack.registry.snapshot()["repro_analytics_queries_total"]
        assert queries["series"][0]["value"] == feeder.queries

    def test_a_bare_stack_swaps_with_nothing_else_attached(self):
        stack = build_stack(storage=StorageEngine())
        head = drive(stack)
        recovered = EthereumNode(backend=default_registry(), clock=stack.clock,
                                 storage=stack.engine)
        stack.replace_node(recovered)
        assert stack.analytics is None and stack.obs is None
        assert stack.rpc.eth.block_number == 1
        assert stack.node.chain.latest_block.hash == head


def value_of(registry, name, **labels):
    """The one series of ``name`` carrying ``labels`` in a fresh snapshot."""
    [row] = [row for row in registry.snapshot()[name]["series"]
             if row["labels"] == labels]
    return row["value"]


class TestTheOneRegistry:
    DEFAULT_SERIES = {"repro_chain_height", "repro_mempool_depth",
                      "repro_cache_hits_total", "repro_rpc_requests_total"}

    def test_a_default_stack_exports_chain_mempool_cache_and_rpc_series(self):
        stack = build_stack()
        assert stack.obs is None
        stack.rpc.eth.block_number
        snapshot = stack.registry.snapshot()
        assert self.DEFAULT_SERIES <= set(snapshot)
        assert "repro_storage_wal_records_total" not in snapshot
        assert value_of(stack.registry, "repro_chain_height", replica="node") == 0
        assert value_of(stack.registry, "repro_rpc_requests_total",
                        method="eth_blockNumber") == 1
        value_of(stack.registry, "repro_cache_hits_total",
                 cache="address_checksum")
        # The checksum and reply caches; a stack with storage adds its read
        # cache (three in all).  A verify keeps no per-key state.
        caches = {row["labels"]["cache"] for row in
                  stack.registry.snapshot()["repro_cache_entries"]["series"]}
        assert caches == {"address_checksum", "rpc_reply"}

    def test_a_stack_with_storage_also_exports_its_wal_and_read_cache(self):
        stack = build_stack(storage=StorageEngine())
        drive(stack)
        assert stack.obs is None
        assert value_of(stack.registry, "repro_storage_wal_records_total",
                        kind="block") == 1
        assert value_of(stack.registry, "repro_cache_capacity",
                        cache="storage") == stack.engine.cache.snapshot()["capacity"]
        assert {row["labels"]["cache"] for row in stack.registry.snapshot()[
            "repro_cache_entries"]["series"]} == {"address_checksum", "rpc_reply", "storage"}
        assert value_of(stack.registry, "repro_mempool_added_total",
                        replica="node") == 4

    def test_a_default_serve_stack_answers_metrics_with_no_flag(self):
        from repro.net import NetConfig, build_serve_stack

        server = build_serve_stack(NetConfig(port=0))
        assert server.stack.obs is None
        text = server.stack.registry.render_prometheus()
        for line in ('repro_chain_height{replica="node"} 0',
                     'repro_mempool_depth{replica="node"} 0',
                     'repro_cache_hits_total{cache="address_checksum"}',
                     "# TYPE repro_rpc_requests_total counter",
                     "repro_net_open_connections 0"):
            assert line in text

    def test_a_facade_is_built_over_the_stacks_registry(self):
        stack = build_stack(observability=True)
        assert stack.obs.registry is stack.registry
        shared = build_stack(observability=stack.obs)
        assert shared.obs is stack.obs and shared.registry is stack.registry

    def test_a_recovered_analytics_follower_is_the_one_that_is_read(self):
        """A follower's recovery replaces its chain and feeder; the
        ``analytics_*`` namespace and the ``repro_analytics_*`` series held
        the first feeder until both learned to ask the stack."""
        stack = build_stack(cluster=ClusterConfig(replicas=3, seed=7),
                            observability=True, analytics=True)
        drive(stack)
        follower = next(replica for replica in stack.cluster.replicas
                        if replica.analytics_enabled)
        dead = stack.analytics
        assert dead is follower.chain.analytics
        collectors = list(stack.registry._collectors)

        stack.cluster.crash_replica(follower.index)
        stack.cluster.recover_replica(follower.index)
        for keypair in SENDERS:
            stack.rpc.eth.send_transaction(Transaction(
                sender=Address(keypair.address), to=SINK, value=1, nonce=2,
                gas_limit=21_000, gas_price=10**9).sign(keypair))
        stack.rpc.call("evm_mine")
        stack.cluster.converge()

        fresh = stack.analytics
        assert fresh is follower.chain.analytics and fresh is not dead
        assert stack.gateway.analytics is fresh
        assert stack.registry._collectors == collectors
        status = stack.rpc.call("analytics_status")
        assert status == fresh.status() != dead.status()
        assert status["transactions"] == 6 and status["lag_entries"] == 0
        assert status["height"] == follower.chain.height
        assert value_of(stack.registry, "repro_analytics_applied_seq") == \
            status["applied_seq"]
        assert value_of(stack.registry, "repro_analytics_lag_entries") == 0
        assert value_of(stack.registry, "repro_chain_height",
                        replica=follower.name) == follower.chain.height


#: What only ``system/stack.py`` may do.  Leading dots keep the patterns on
#: *calls*: ``def attach_obs(`` in the defining module does not match.
WIRING = re.compile(
    r"JsonRpcGateway\(|ChainCluster\(|ClusterNode\("
    r"|\.attach_obs\(|\.attach_storage\(|\.attach_analytics\("
    r"|\.instrument_cluster\(")

#: The builder, ``MarketplaceClient.for_node`` (a bare gateway over the
#: node the caller already holds) and the cluster package's
#: internals (a follower attaching its own replica, ``class ClusterNode(``).
MAY_WIRE = {"system/stack.py", "rpc/client.py"}


#: Metrics wiring: one registry, built by the builder, and one collector on
#: it -- plus the one line each by which a server and a load generator add
#: the series only they have.
METRICS_WIRING = re.compile(r"MetricsRegistry\(|\.register_collector\(")
MAY_REGISTER = {"system/stack.py": 2, "net/server.py": 1, "loadgen/driver.py": 1}


def test_one_construction_site():
    src = Path(repro.__file__).parent
    offenders = []
    metrics_wiring = {}
    for path in sorted(src.rglob("*.py")):
        relative = path.relative_to(src).as_posix()
        text = path.read_text()
        hits = len(METRICS_WIRING.findall(text))
        if hits and relative != "obs/registry.py":  # where both are defined
            metrics_wiring[relative] = hits
        if relative in MAY_WIRE or relative.startswith("cluster/"):
            continue
        for number, line in enumerate(text.splitlines(), start=1):
            if WIRING.search(line):
                offenders.append(f"{relative}:{number}: {line.strip()}")
    assert not offenders, "stack wiring outside system/stack.py:\n" + "\n".join(
        offenders)
    assert metrics_wiring == MAY_REGISTER
    # Guard the guard: the builder itself trips every pattern family.
    assert len(set(WIRING.findall((src / "system/stack.py").read_text()))) == 7


#: What ``repro serve`` never runs: the marketplace and the numeric stack
#: under it.  A served process that imports any of them pays ~0.5 s to boot
#: and ~57 MB resident for routes it does not mount.
NOT_SERVED = ("numpy", "scipy", "repro.ml", "repro.fl", "repro.web",
              "repro.data", "repro.incentives", "repro.storage",
              "repro.cluster", "repro.analytics", "repro.system.orchestrator")


def imported_from(importtime_log, roots):
    """The modules under ``roots`` in a ``python -X importtime`` log."""
    names = {line.rsplit("|", 1)[1].strip()
             for line in importtime_log.splitlines()
             if line.startswith("import time:")}
    return sorted(name for name in names
                  if any(name == root or name.startswith(root + ".")
                         for root in roots))


def repro_command(*argv):
    """``python -X importtime -m repro ARGV`` with this checkout's source."""
    return [sys.executable, "-X", "importtime", "-m", "repro", *argv]


REPRO_ENV = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))


def test_a_server_process_does_not_import_the_marketplace(tmp_path):
    """The real entry point, driven through every door a default server has:
    a handler that imported on first use would show in the child's log.

    Measured on a 2-CPU box: importing the marketplace beside the server cost
    ~0.5 s of a ~0.7 s boot and 57 of 85 MB resident before the first
    request."""
    import http.client
    import json
    import signal
    import subprocess

    log = tmp_path / "importtime.log"
    with log.open("w") as stderr:
        process = subprocess.Popen(
            repro_command("serve", "--port", "0", "--block-interval", "0.05"),
            stdout=subprocess.PIPE, stderr=stderr, text=True, env=REPRO_ENV)
    try:
        port = None
        for line in process.stdout:
            match = re.search(r"listening on http://127\.0\.0\.1:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        assert port is not None, log.read_text()[-2000:]

        def request(method, path, body=None):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                conn.request(method, path,
                             body=None if body is None else json.dumps(body))
                reply = conn.getresponse()
                assert reply.status == 200
                return reply.read()
            finally:
                conn.close()

        def call(method, *params):
            reply = json.loads(request("POST", "/", {
                "jsonrpc": "2.0", "id": 1, "method": method,
                "params": list(params)}))
            assert "result" in reply, reply
            return reply["result"]

        keypair = SENDERS[0]
        call("dev_fundAccount", keypair.address)
        tx_hash = call("eth_sendRawTransaction", transfers()[0].serialize_raw())
        deadline = time.time() + 10
        while call("eth_getTransactionReceipt", tx_hash) is None:
            assert time.time() < deadline, "the producer never mined the transfer"
            time.sleep(0.05)
        added = call("ipfs_add", "0x" + "ab" * 4096)
        assert call("ipfs_cat", added["cid"]) == "0x" + "ab" * 4096
        assert call("eth_getLogs", {"fromBlock": "0x0", "toBlock": "latest"}) == []
        assert b"repro_chain_height" in request("GET", "/metrics")
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
    assert process.returncode == 0
    assert imported_from(log.read_text(), NOT_SERVED) == []

    # What the server skipped still resolves on first use.
    from repro.simnet import NETWORK_PROFILES, SCENARIOS, ScenarioRunner
    from repro.system import quick_config, run_marketplace

    assert callable(run_marketplace) and callable(quick_config)
    assert callable(ScenarioRunner) and "ideal" in SCENARIOS
    assert NETWORK_PROFILES["ideal"] is None


@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    """A log store holding one funded transfer in one block."""
    directory = tmp_path_factory.mktemp("small-store")
    stack = build_stack(storage=StorageConfig(backend="log",
                                              directory=str(directory)))
    stack.faucet.drip(SENDERS[0].address, ether_to_wei(1))
    stack.rpc.eth.send_transaction(transfers()[0])
    stack.rpc.call("evm_mine")
    stack.close()
    stack.engine.close()
    return str(directory)


@pytest.mark.parametrize("argv", [
    ["info"],
    ["rpc", "--list"],
    ["storage", "verify", "STORE"],
    ["analytics", "status", "STORE"],
], ids=lambda argv: " ".join(argv[:2]))
def test_a_command_that_neither_trains_nor_draws_imports_no_numpy(argv, small_store):
    """Every command builds the same parser, so one eager import there reaches
    them all (``cluster status``, ``run``, ``simulate``, ``show``,
    ``gas-report`` and ``model-quality`` draw or train and are not listed)."""
    import subprocess

    argv = [small_store if word == "STORE" else word for word in argv]
    done = subprocess.run(repro_command(*argv), env=REPRO_ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert imported_from(done.stderr, ("numpy", "scipy")) == []
