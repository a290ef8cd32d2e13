"""The scenario runner: many concurrent OFL-W3 tasks on one shared chain.

Architecture
------------
One :class:`~repro.utils.clock.SimulatedClock` is shared by everything: the
chain node (block production), the IPFS swarm (when a network model is
attached), and the :class:`~repro.simnet.events.EventScheduler` that drives
every task as a generator *process*.  Each task walks the seven-step OFL-W3
workflow phase by phase, yielding control between phases so the scheduler
can interleave tasks deterministically; legacy blocking calls (``submit and
wait for inclusion``) still advance the shared clock inline, which the
scheduler tolerates by never moving time backwards.

Exactness guarantee
-------------------
Under a seed-exact spec (one task, all honest, ideal network, synchronous
submissions -- the "ideal" scenario) the runner builds the *identical*
environment :func:`repro.system.orchestrator.build_environment` would build
and issues the identical call sequence, so the resulting
:class:`~repro.system.orchestrator.MarketplaceReport` -- and with it every
Fig. 4-7 number -- matches a plain ``run_marketplace`` bit for bit.

Concurrency
-----------
With ``async_submissions`` enabled, owners broadcast their CID transactions
fire-and-forget and poll for inclusion while the one block producer,
:func:`slot_producer`, mines on the slot cadence without moving the clock;
transactions from many tasks and the background load genuinely queue in the
one shared mempool, which is where the mempool-depth series and fee-priority
contention come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple, Union

from repro.chain.account import Address
from repro.chain.explorer import Explorer
from repro.chain.node import EthereumNode
from repro.chain.transaction import Transaction, encode_call
from repro.contracts.registry import default_registry
from repro.errors import ReproError, SimulationError
from repro.storage.engine import StorageEngine, ensure_engine
from repro.simnet.behaviors import (
    OwnerBehavior,
    adversary_fraction,
    archetype_counts,
    assign_behaviors,
)
from repro.simnet.events import EventScheduler, SimProcess
from repro.simnet.profiles import make_network
from repro.simnet.report import ScenarioReport, TaskOutcome
from repro.simnet.scenario import ScenarioSpec, build_scenario
from repro.system.config import OFLW3Config, quick_config
from repro.system.orchestrator import (
    MarketplaceEnvironment,
    MarketplaceReport,
    build_environment,
    build_marketplace_report,
    default_task_spec,
)
from repro.system.roles import ModelOwner
from repro.system.stack import Stack, build_stack
from repro.utils.clock import SimulatedClock
from repro.utils.rng import derive_seed
from repro.web.wallet import WalletActivity

#: How often an async submitter polls for its receipt (half a Sepolia slot).
RECEIPT_POLL_SECONDS = 6.0


def slot_producer(stack: Stack, busy: Callable[[], bool]) -> Generator:
    """Mine at each slot boundary, at the current time, while ``busy()``.

    A slot whose tip is already in it is skipped, so a wallet's blocking
    ``wait_for_receipt`` (which still mines through ``evm_mine``) cannot
    double the modeled Sepolia cadence.  A cluster mints by leader rotation
    every slot, empty blocks included; ``produce_now`` skips per side.
    """
    slot = stack.node.chain.config.slot_seconds
    while busy():
        gap = slot - (stack.clock.now % slot)
        yield gap if gap > 1e-9 else slot
        if stack.cluster is not None:
            stack.cluster.produce_now(force=True)
            continue
        chain = stack.node.chain
        tip = chain.latest_block
        if tip.number == 0 or (chain.consensus.slot_at(tip.timestamp)
                               != chain.consensus.slot_at(stack.clock.now)):
            stack.node.produce_pending(advance_clock=False)


@dataclass
class _TaskRuntime:
    """Live state of one task inside a scenario run."""

    index: int
    config: OFLW3Config
    env: MarketplaceEnvironment
    behaviors: List[Optional[OwnerBehavior]]
    outcome: TaskOutcome
    process: Optional[SimProcess] = None
    report: Optional[MarketplaceReport] = None


class ScenarioRunner:
    """Executes one :class:`ScenarioSpec` and produces a :class:`ScenarioReport`."""

    #: The rotation of analytical reads the background analytics process
    #: issues against the replica (one kind per tick, round-robin).
    _ANALYTICS_QUERY_KINDS = ("logs", "leaderboard", "fee_summary",
                              "chain_statistics", "series")

    def __init__(
        self,
        scenario: Union[ScenarioSpec, str],
        config: Optional[OFLW3Config] = None,
        storage: Optional[Any] = None,
        observability: Any = False,
    ) -> None:
        self.spec = build_scenario(scenario) if isinstance(scenario, str) else scenario
        self.base_config = config or quick_config()
        self.seed = self.base_config.seed

        # Shared infrastructure: one stack (``repro.system.stack``) and one
        # storage engine under every task.  The chain write-ahead logs through
        # the engine and every IPFS node's blocks live in its blob spaces; the
        # in-memory default stands in for a disk that survives the simulated
        # crash of a restart scenario.  Tasks' wallets and facades -- and the
        # runner's own async submitters / receipt pollers -- cross the one
        # gateway, so its metrics see the whole scenario's request traffic.
        self.clock = SimulatedClock()
        self.scheduler = EventScheduler(self.clock)
        self.chain_network = make_network(
            self.spec.network_profile, seed=derive_seed(self.seed, "chain-net"))
        self.ipfs_network = make_network(
            self.spec.network_profile, seed=derive_seed(self.seed, "ipfs-net"))
        self.storage = ensure_engine(storage) or StorageEngine()
        cluster_config = None
        if self.spec.cluster is not None:
            from repro.cluster import ClusterConfig

            # The spec's network_profile still governs the *client* links
            # (wallet -> cluster RPC), exactly as it does for a single node;
            # the cluster_profile governs the inter-replica gossip links.
            cluster_config = ClusterConfig(
                replicas=self.spec.cluster,
                network_profile=self.spec.cluster_profile,
                regions=self.spec.cluster_regions,
                seed=derive_seed(self.seed, "cluster"),
            )
        # Observability and analytics are strictly opt-in: off -- the default
        # -- nothing is constructed for them and reports stay byte-identical
        # to the uninstrumented seed.  An analytics replica lives on a
        # follower of a cluster (the HTAP pattern: ingest stays on the leader)
        # or on the one chain; mounted on the gateway it also serves the
        # background load generator's ``analytics`` ops.
        self.stack = build_stack(
            clock=self.clock, storage=self.storage, cluster=cluster_config,
            chain_network=self.chain_network, ipfs_network=self.ipfs_network,
            observability=observability,
            analytics=self.spec.analytics is not None)
        self.cluster = self.stack.cluster
        self.cluster_events: List[Dict[str, Any]] = []
        self.rpc = self.stack.rpc
        self.obs = self.stack.obs
        self.node_restarts = 0
        self.analytics_replica = None
        self._analytics_counts: Dict[str, int] = {}
        if self.spec.analytics is not None:
            if self.cluster is not None:
                self.analytics_replica = next(
                    replica for replica in self.cluster.replicas
                    if replica.analytics_enabled)
            self._analytics_counts = {
                kind: 0 for kind in self._ANALYTICS_QUERY_KINDS}

        self.tasks: List[_TaskRuntime] = []
        self._active_tasks = 0
        self._mempool_series: List[Tuple[float, int]] = []
        self._loadgen = None  # built in run() when the spec asks for load

    @property
    def node(self) -> EthereumNode:
        """The stack's chain node (replaced by a restart scenario)."""
        return self.stack.node

    # -- construction -----------------------------------------------------------

    def _task_config(self, index: int) -> OFLW3Config:
        """Task 0 keeps the base seed (exactness); later tasks derive theirs."""
        if index == 0:
            return self.base_config
        return self.base_config.with_overrides(
            seed=derive_seed(self.base_config.seed, f"task-{index}"))

    def _build_task(self, index: int) -> _TaskRuntime:
        config = self._task_config(index)
        behaviors = assign_behaviors(
            config.num_owners,
            self.spec.behavior_fractions,
            seed=derive_seed(config.seed, "behaviors"),
            behavior_kwargs=self.spec.behavior_kwargs,
        )
        label_prefix = "" if index == 0 else f"t{index}-"
        env = build_environment(
            config,
            stack=self.stack,
            label_prefix=label_prefix,
            behaviors=behaviors,
        )
        outcome = TaskOutcome(
            index=index,
            label=f"task-{index}",
            adversary_fraction=adversary_fraction(behaviors),
            archetype_counts=archetype_counts(behaviors),
            num_owners=config.num_owners,
        )
        return _TaskRuntime(index=index, config=config, env=env,
                            behaviors=behaviors, outcome=outcome)

    # -- processes --------------------------------------------------------------

    def _task_process(self, task: _TaskRuntime) -> Generator:
        """One task's journey through Steps 1-7, yielding between phases."""
        outcome = task.outcome
        workflow = task.env.workflow
        config = task.config
        outcome.started_at = self.clock.now
        outcome.status = "running"
        try:
            workflow.step1_deploy(default_task_spec(config), config.budget_wei)
        except ReproError as error:
            self._fail(task, f"deployment failed: {error}")
            return
        outcome.task_address = workflow.result.task_address
        yield 0.0

        for owner in task.env.owners:
            try:
                submitted = yield from self._owner_process(task, owner)
            except ReproError as error:
                # A lost submission / network failure silences this owner;
                # the task carries on with whoever did submit.
                workflow.record_owner_result(
                    owner.dropped_result("error", error=str(error)))
                submitted = False
            if submitted:
                outcome.num_submissions += 1
            yield 0.0

        try:
            listing = workflow.step5_download_cids()
            if not listing.get("cids"):
                self._fail(task, "no CIDs were submitted (every owner churned out)")
                return
            yield 0.0
            workflow.step6_retrieve_models()
            yield 0.0
            workflow.step7_aggregate_and_pay(
                incentive_method=config.incentive_method,
                reserve_fraction=config.reserve_fraction,
                min_payment_wei=config.min_payment_wei,
            )
        except ReproError as error:
            self._fail(task, f"buyer-side failure: {error}")
            return

        task.report = build_marketplace_report(task.env, workflow.result)
        outcome.status = "completed"
        outcome.finished_at = self.clock.now
        outcome.aggregate_accuracy = task.report.aggregate_accuracy
        local = task.report.local_accuracies_by_owner
        if local:
            outcome.mean_local_accuracy = sum(local.values()) / len(local)
        outcome.total_paid_wei = task.report.total_paid_wei
        self._active_tasks -= 1

    def _owner_process(self, task: _TaskRuntime, owner: ModelOwner) -> Generator:
        """One owner's Steps 2-4, phase by phase; returns True if a CID landed."""
        workflow = task.env.workflow
        task_address = workflow.result.task_address
        submit = None
        if self.spec.async_submissions:
            submit = lambda: self._submit_cid_async(owner, task_address)  # noqa: E731
        result, submitted = yield from owner.iter_flow(task_address, submit=submit)
        workflow.record_owner_result(result)
        return submitted

    def _submit_cid_async(self, owner: ModelOwner, task_address: str) -> Generator:
        """Fire-and-forget CID broadcast; poll for inclusion instead of blocking.

        This is what lets transactions from many concurrent tasks pile up in
        the shared mempool: the owner keeps only a lightweight poller while
        the block-producer process drains the queue on the slot cadence.

        The broadcast is an ``eth_sendRawTransaction`` and every poll is an
        ``eth_getTransactionReceipt`` through the shared gateway, so the
        scenario's RPC metrics include the polling storm a web3 client would
        generate.
        """
        session = owner.dapp.session
        if session.cid is None:
            raise SimulationError(f"owner {owner.name} has no CID to submit")
        started = self.clock.now
        keypair = owner.wallet.keypair
        tx = Transaction(
            sender=Address(keypair.address),
            to=Address(task_address),
            data=encode_call("uploadCid", [session.cid]),
            nonce=self.rpc.eth.get_transaction_count(keypair.address, "pending"),
            gas_limit=1_000_000,
            gas_price=owner.wallet.gas_price_wei,
        )
        tx.sign(keypair)
        tx_hash = self.rpc.eth.send_transaction(tx)
        activity = WalletActivity(description="Submit model CID",
                                  transaction_hash=tx_hash)
        owner.wallet.activity.append(activity)
        while (receipt := self.rpc.eth.get_receipt(tx_hash)) is None:
            yield RECEIPT_POLL_SECONDS
        # Keep the MetaMask activity log and per-wallet fee accounting
        # identical to the synchronous submit_cid path.
        activity.receipt = receipt
        owner.breakdown.add(
            "send_cid",
            (self.clock.now - started) + owner.latency.metamask_confirmation_seconds,
        )
        session.cid_index = receipt.return_value
        return {
            "status": receipt.status,
            "cid": session.cid,
            "cid_index": receipt.return_value,
            "transaction_hash": receipt.transaction_hash,
            "async": True,
        }

    def _chaos_process(self) -> Generator:
        """Kill the chain node at the configured time and recover it."""
        yield self.spec.node_restart_at_seconds
        if self._active_tasks > 0:
            self._restart_node()

    def _record_cluster_event(self, kind: str, detail: str = "") -> None:
        """Append one chaos-timeline entry for the scenario report."""
        self.cluster_events.append({
            "at": round(self.clock.now, 3),
            "kind": kind,
            "detail": detail,
            "heads": sorted({(r.height, r.head_hash)
                             for r in self.cluster.alive_replicas()}),
        })

    def _cluster_partition_process(self) -> Generator:
        """Split the cluster's gossip network, then (optionally) heal it.

        At heal time the process records whether the sides actually diverged
        and runs explicit anti-entropy, so the report can assert the
        partition_heal contract: divergence during the split, byte-identical
        heads after the heal.
        """
        yield self.spec.partition_at_seconds
        count = self.cluster.config.replicas
        half = count // 2
        groups = [list(range(half)), list(range(half, count))]
        self.cluster.partition(groups)
        self._record_cluster_event("partition", f"groups {groups}")
        if self.spec.heal_at_seconds is None:
            return
        yield self.spec.heal_at_seconds - self.spec.partition_at_seconds
        diverged = not self.cluster.heads_identical()
        self.cluster.heal()
        converged = self.cluster.converge()
        self._record_cluster_event(
            "heal",
            f"diverged={diverged} converged={converged}")

    def _cluster_leader_crash_process(self) -> Generator:
        """Kill the current cluster leader; optionally recover it later."""
        yield self.spec.leader_crash_at_seconds
        victim = self.cluster.leader_replica()
        self.cluster.crash_replica(victim.index)
        self._record_cluster_event("leader_crash", victim.name)
        if self.spec.leader_recover_at_seconds is None:
            return
        yield self.spec.leader_recover_at_seconds - self.spec.leader_crash_at_seconds
        self.cluster.recover_replica(victim.index)
        self.cluster.converge()
        self._record_cluster_event(
            "leader_recover",
            f"{victim.name} (recoveries={victim.recoveries}, "
            f"resyncs={victim.resyncs})")

    def _analytics_chain(self):
        """The chain whose analytics replica this scenario queries."""
        if self.analytics_replica is not None:
            return self.analytics_replica.chain
        return self.node.chain

    def _analytics_process(self) -> Generator:
        """Issue analytical reads against the replica on a fixed cadence.

        One query kind per tick, round-robin over logs, leaderboards and the
        pre-aggregated rollups -- the sustained analytical read pressure an
        explorer frontend or reporting job would generate, running while
        ingest is live so freshness (drain-on-read) is actually exercised.
        """
        interval = float(self.spec.analytics.get("interval_seconds", 15.0))
        tick = 0
        while self._active_tasks > 0:
            yield interval
            feeder = self._analytics_chain().analytics
            if feeder is None:  # analytics follower currently crashed
                continue
            kind = self._ANALYTICS_QUERY_KINDS[
                tick % len(self._ANALYTICS_QUERY_KINDS)]
            tick += 1
            self._run_analytics_query(feeder, kind)

    def _run_analytics_query(self, feeder: Any, kind: str) -> None:
        """Fire one analytical read of ``kind`` and count it for the report."""
        from repro.analytics import LEADERBOARDS, PAYMENT_EVENT, SUBMISSION_EVENT
        from repro.chain.events import LogFilter

        if kind == "logs":
            feeder.logs(LogFilter(event_name=PAYMENT_EVENT))
        elif kind == "leaderboard":
            feeder.leaderboard(LEADERBOARDS[0], limit=10)
        elif kind == "fee_summary":
            feeder.fee_summary_by_kind()
        elif kind == "chain_statistics":
            feeder.chain_statistics()
        else:
            feeder.series(SUBMISSION_EVENT)
        self._analytics_counts[kind] = self._analytics_counts.get(kind, 0) + 1

    def _analytics_stats(self) -> Dict[str, Any]:
        """End-of-run replica metrics plus a replica-vs-OLTP parity check.

        The parity check temporarily detaches the feeder so the same calls
        run through the seed's scan path on the same chain, then compares
        byte-identical structures -- the report-level version of the parity
        property test.
        """
        from repro.analytics import scan_leaderboard
        from repro.chain.explorer import Explorer
        from repro.chain.events import LogFilter

        chain = self._analytics_chain()
        feeder = chain.analytics
        replica_logs = [log.to_dict() for log in feeder.logs(LogFilter())]
        replica_lead = feeder.leaderboard("payments", limit=10)
        replica_fees = feeder.fee_summary_by_kind()
        chain.analytics = None
        try:
            scan_logs = [log.to_dict() for log in chain.logs(LogFilter())]
            scan_lead = scan_leaderboard(chain, "payments", limit=10)
            scan_fees = Explorer(chain).fee_summary_by_kind()
        finally:
            chain.analytics = feeder
        parity_ok = (replica_logs == scan_logs
                     and replica_lead == scan_lead
                     and replica_fees == scan_fees)
        return {
            "queries_total": sum(self._analytics_counts.values()),
            "queries_by_kind": dict(self._analytics_counts),
            "status": feeder.status(),
            "parity_ok": parity_ok,
        }

    def _restart_node(self) -> None:
        """Abruptly drop the chain node and rebuild it from durable storage.

        This is the simulated ``kill -9``: the old node object -- its chain,
        state, mempool and receipt index -- is discarded wholesale, and a
        new node over the storage engine recovers it (snapshot + WAL replay,
        pending transactions re-queued).  Every wallet and facade reaches the
        chain through the shared JSON-RPC gateway, so re-pointing the
        gateway's ``eth_*`` namespace is all the rewiring the marketplace
        needs.
        """
        dead = self.node
        recovered = EthereumNode(backend=default_registry(), clock=self.clock,
                                 network=self.chain_network, storage=self.storage)
        recovered.dropped_submissions = dead.dropped_submissions
        # Scenario metrics describe the whole run, not one process lifetime:
        # carry the dead node's admission counters over (recovery's re-queued
        # pending transactions were already counted before the crash).
        recovered.chain.mempool.total_added = dead.chain.mempool.total_added
        recovered.chain.mempool.max_depth = max(
            recovered.chain.mempool.max_depth, dead.chain.mempool.max_depth)
        self.stack.replace_node(recovered)
        self.node_restarts += 1
        if self.obs is not None:
            self.obs.event("node.restart", height=recovered.chain.height)

    def _install_background_load(self) -> None:
        """Attach a ``repro.loadgen`` driver to this scenario's shared stack.

        The load generator's clients are extra marketplace users: their
        transfers, chain reads and ``ipfs_cat`` fetches cross the same
        gateway, mempool and swarm as the tasks' traffic, skewed and bursty
        per the spec's ``background_load`` overrides.  Imported lazily --
        ``repro.loadgen`` builds on ``repro.simnet``, not the other way
        around.
        """
        from repro.loadgen import LoadGenConfig, LoadGenerator

        overrides = dict(self.spec.background_load)
        delay = float(overrides.pop("delay", 0.0))
        overrides.setdefault("seed", derive_seed(self.seed, "background-load"))
        try:
            config = LoadGenConfig(**overrides)
        except TypeError as exc:
            # A typo'd override key would otherwise surface as a raw
            # TypeError; name the valid keys like every other spec error.
            import dataclasses

            valid = sorted(f.name for f in dataclasses.fields(LoadGenConfig))
            raise SimulationError(
                f"bad background_load overrides ({exc}); valid keys are "
                f"{valid} plus 'delay'") from exc
        self._loadgen = LoadGenerator(
            config, stack=self.stack, scheduler=self.scheduler)
        self._loadgen.install(delay=delay)

    def _fail(self, task: _TaskRuntime, reason: str) -> None:
        task.outcome.status = "failed"
        task.outcome.failure = reason
        task.outcome.finished_at = self.clock.now
        self._active_tasks -= 1

    # -- metrics ----------------------------------------------------------------

    def _sample_mempool(self, _old: float, now: float) -> None:
        """Clock observer: record the mempool depth whenever time moves."""
        depth = len(self.node.chain.mempool)
        if not self._mempool_series or self._mempool_series[-1][1] != depth:
            self._mempool_series.append((now, depth))

    def _gas_by_task(self) -> Dict[int, int]:
        """Total fees per task, attributed by transaction sender."""
        sender_to_task: Dict[str, int] = {}
        for task in self.tasks:
            sender_to_task[task.env.buyer.address.lower()] = task.index
            for owner in task.env.owners:
                sender_to_task[owner.address.lower()] = task.index
        totals: Dict[int, int] = {task.index: 0 for task in self.tasks}
        for record in Explorer(self.node.chain).all_records():
            task_index = sender_to_task.get(str(record.transaction.sender).lower())
            if task_index is not None:
                totals[task_index] += record.fee_wei
        return totals

    # -- execution --------------------------------------------------------------

    def run(self) -> ScenarioReport:
        """Build every task, drive the scenario to completion, report."""
        if self.tasks:
            raise SimulationError("a ScenarioRunner instance runs exactly once")
        for index in range(self.spec.num_tasks):
            self.tasks.append(self._build_task(index))
        self._active_tasks = len(self.tasks)
        self.clock.subscribe(self._sample_mempool)
        try:
            for task in self.tasks:
                task.process = self.scheduler.spawn(
                    self._task_process(task),
                    delay=task.index * self.spec.task_stagger_seconds,
                    name=task.outcome.label,
                )
            if self.spec.async_submissions or self.spec.background_load is not None:
                self.scheduler.spawn(slot_producer(self.stack, lambda: (
                    self._active_tasks > 0
                    or (self._loadgen is not None and self._loadgen.busy()))),
                    name="block-producer")
            if self.spec.node_restart_at_seconds is not None:
                self.scheduler.spawn(self._chaos_process(), name="chaos-restart")
            if self.spec.partition_at_seconds is not None:
                self.scheduler.spawn(self._cluster_partition_process(),
                                     name="chaos-partition")
            if self.spec.leader_crash_at_seconds is not None:
                self.scheduler.spawn(self._cluster_leader_crash_process(),
                                     name="chaos-leader-crash")
            if self.spec.analytics is not None:
                self.scheduler.spawn(self._analytics_process(),
                                     name="analytics-reads")
            if self.spec.background_load is not None:
                self._install_background_load()
            self.scheduler.run()
        finally:
            self.clock.unsubscribe(self._sample_mempool)

        if self.cluster is not None:
            # Let in-flight gossip land and run one explicit anti-entropy
            # round, so the report's convergence flag reflects the cluster's
            # steady state rather than a half-delivered announcement.
            self.cluster.converge()
        return self._build_report()

    def _build_report(self) -> ScenarioReport:
        from repro.system.costs import build_gas_cost_report

        gas_report = build_gas_cost_report(self.node.chain)
        gas_by_task = self._gas_by_task()
        for task in self.tasks:
            task.outcome.gas_fee_wei = gas_by_task.get(task.index, 0)

        mempool_stats = self.node.chain.mempool.stats()
        network_stats = None
        if self.chain_network is not None or self.ipfs_network is not None:
            network_stats = {"messages": 0, "dropped": 0, "bytes_moved": 0,
                             "delay_seconds": 0.0, "retransmissions": 0}
            for model in (self.chain_network, self.ipfs_network):
                if model is None:
                    continue
                for key, value in model.stats.to_dict().items():
                    network_stats[key] = round(network_stats[key] + value, 3)

        rpc_stats = self.stack.gateway.metrics.snapshot(include_latency=False)

        cluster_stats = None
        if self.cluster is not None:
            cluster_stats = self.cluster.status()
            cluster_stats["events"] = list(self.cluster_events)

        return ScenarioReport(
            scenario=self.spec.to_dict(),
            seed=self.seed,
            tasks=[task.outcome for task in self.tasks],
            makespan_seconds=self.clock.now,
            events_executed=self.scheduler.events_executed,
            mempool_depth_series=list(self._mempool_series),
            mempool_max_depth=mempool_stats["max_depth"],
            mempool_total_transactions=mempool_stats["total_added"],
            blocks_produced=self.node.block_number,
            gas_by_category=gas_report.to_dict(),
            total_gas_fee_wei=sum(
                int(row.total_fee_wei) for row in gas_report.rows.values()),
            ipfs_bytes_transferred=self.stack.swarm.total_bytes_transferred(),
            network_stats=network_stats,
            dropped_submissions=self.node.dropped_submissions,
            failed_fetch_attempts=self.stack.swarm.failed_fetch_attempts,
            rpc_stats=rpc_stats,
            node_restarts=self.node_restarts,
            storage_stats=self.storage.describe(),
            load_stats=(self._loadgen.finalize().sim_dict()
                        if self._loadgen is not None else None),
            cluster_stats=cluster_stats,
            obs_stats=(self.obs.stats_dict() if self.obs is not None else None),
            analytics_stats=(self._analytics_stats()
                             if self.spec.analytics is not None else None),
        )

    # -- results access ----------------------------------------------------------


def run_scenario(
    scenario: Union[ScenarioSpec, str],
    config: Optional[OFLW3Config] = None,
    **spec_overrides,
) -> ScenarioReport:
    """One-call convenience: build a runner, apply overrides, run, report."""
    spec = build_scenario(scenario) if isinstance(scenario, str) else scenario
    if spec_overrides:
        spec = spec.with_overrides(**spec_overrides)
    return ScenarioRunner(spec, config=config).run()
