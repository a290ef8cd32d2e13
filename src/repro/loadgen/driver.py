"""The open-/closed-loop load generator.

Thousands of simulated clients fire skewed, bursty request mixes at the
JSON-RPC gateway on the simulated clock:

* **open loop** -- one arrival process (Poisson / uniform / ramp / flash
  crowd) schedules requests independent of completions, the way internet
  traffic actually arrives; confirmation latency is accounted by a reaper
  that matches mined receipts back to submission times;
* **closed loop** -- each client thinks, fires, waits for its transfer to be
  mined, and repeats: classic benchmark-harness behaviour, useful to bound
  concurrency.

The driver runs on a :class:`~repro.system.stack.Stack`: one it builds for
itself (CLI, sweeps) or one it is handed (the simnet scenario runner injects
background load into a running marketplace scenario this way).  All request
traffic crosses the stack's gateway through
:class:`~repro.rpc.client.MarketplaceClient`, so middleware metrics and rate
limits apply exactly as they would to any other client.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Generator, List, Optional

from repro.errors import ReproError, SimulationError
from repro.chain.account import Address
from repro.chain.chain import ChainConfig
from repro.chain.faucet import Faucet
from repro.chain.keys import KeyPair
from repro.chain.node import EthereumNode
from repro.chain.transaction import Transaction
from repro.contracts.registry import default_registry
from repro.ipfs.node import IpfsNode
from repro.loadgen.arrivals import ArrivalProcess, ZipfSelector, make_arrivals
from repro.loadgen.report import LoadReport, SweepPoint, SweepReport
from repro.loadgen.stats import LatencyStats, OpStats
from repro.loadgen.workload import DEFAULT_MIX, ClientPool, RequestMix
from repro.obs.adapters import collect_loadgen
from repro.simnet.events import EventScheduler
from repro.system.stack import Stack, build_stack
from repro.utils.rng import derive_seed, make_rng
from repro.utils.units import ether_to_wei

#: How often pollers re-check for receipts (half a Sepolia slot).
RECEIPT_POLL_SECONDS = 6.0

#: Gas-price tiers (wei) sampled per transfer so fee-priority ordering in the
#: mempool is actually exercised under load.
GAS_PRICE_TIERS = (10**9, 2 * 10**9, 5 * 10**9)


@dataclass(frozen=True)
class LoadGenConfig:
    """Declarative description of one load-generation run."""

    clients: int = 100
    duration_seconds: float = 300.0
    rate: float = 20.0
    """Open-loop arrivals per simulated second (total, across all clients)."""

    mode: str = "open"  # open | closed
    arrival: str = "poisson"  # uniform | poisson | ramp | flashcrowd
    think_time_seconds: float = 10.0
    """Closed-loop mean think time between a client's requests."""

    mix: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    zipf_exponent: float = 1.1
    """Skew of sender and content popularity (0 = uniform)."""

    payload_bytes: int = 2048
    num_objects: int = 64
    """Pre-seeded IPFS objects served to ``ipfs`` ops."""

    seed: int = 7
    transfer_value_wei: int = 1_000
    fund_wei: int = ether_to_wei(5)
    rate_limit: Optional[float] = None
    """Gateway token-bucket rate (requests per simulated second)."""

    cluster: Optional[int] = None
    """Drive an N-replica replication cluster (``repro.cluster``) instead of
    one node: writes route to the rotation leader and reads load-balance
    across caught-up replicas.  ``None`` -- the default -- keeps the
    single-node stack."""

    batch_verify: Optional[int] = None
    """Verify-worker count for deferred Schnorr verification at block
    production (``repro.batchverify``); ``0`` settles inline on the
    coordinator.  ``None`` -- the default -- verifies at submission."""

    max_events: int = 2_000_000
    receipt_timeout_polls: int = 1_000

    def __post_init__(self) -> None:
        if self.clients <= 0:
            raise SimulationError(f"clients must be positive, got {self.clients}")
        if self.duration_seconds <= 0:
            raise SimulationError(
                f"duration_seconds must be positive, got {self.duration_seconds}")
        if self.rate <= 0:
            raise SimulationError(f"rate must be positive, got {self.rate}")
        if self.mode not in ("open", "closed"):
            raise SimulationError(f"mode must be open or closed, got {self.mode!r}")
        if self.mode == "closed" and self.think_time_seconds <= 0:
            # Think time is the only thing guaranteed to advance the sim
            # clock in a closed loop (reads and ipfs fetches are instant);
            # zero think time would spin at t=0 until the event budget blows.
            raise SimulationError(
                "closed-loop mode needs a positive think_time_seconds, "
                f"got {self.think_time_seconds}")
        if self.think_time_seconds < 0:
            raise SimulationError(
                f"think_time_seconds must be non-negative, got {self.think_time_seconds}")
        if self.num_objects <= 0:
            raise SimulationError(f"num_objects must be positive, got {self.num_objects}")
        if self.payload_bytes <= 0:
            raise SimulationError(f"payload_bytes must be positive, got {self.payload_bytes}")
        if self.cluster is not None and self.cluster < 2:
            raise SimulationError(
                f"cluster needs at least 2 replicas, got {self.cluster}")

    def with_overrides(self, **kwargs) -> "LoadGenConfig":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        return {
            "clients": self.clients,
            "duration_seconds": self.duration_seconds,
            "rate": self.rate,
            "mode": self.mode,
            "arrival": self.arrival,
            "think_time_seconds": self.think_time_seconds,
            "mix": dict(self.mix),
            "zipf_exponent": self.zipf_exponent,
            "payload_bytes": self.payload_bytes,
            "num_objects": self.num_objects,
            "seed": self.seed,
            "rate_limit": self.rate_limit,
            "cluster": self.cluster,
            "batch_verify": self.batch_verify,
        }


class LoadGenerator:
    """Drives one load-generation run against a marketplace stack.

    With no ``stack`` it builds one from the config's ``cluster`` /
    ``batch_verify`` / ``rate_limit`` and drives it with :meth:`run`::

        report = LoadGenerator(LoadGenConfig(clients=1000, rate=50)).run()

    The simnet runner passes its shared ``stack`` and ``scheduler`` instead
    and calls :meth:`install` / :meth:`finalize` around the scenario's own
    event loop.
    """

    def __init__(
        self,
        config: LoadGenConfig,
        *,
        stack: Optional[Stack] = None,
        scheduler: Optional[EventScheduler] = None,
        manage_blocks: bool = True,
        label_prefix: str = "loadgen",
        oflw3_backend_key: Optional[str] = None,
        observability: Any = False,
    ) -> None:
        self.config = config
        self.label_prefix = label_prefix
        if (stack is None) != (scheduler is None):
            raise SimulationError(
                "pass a stack together with the scheduler on its clock, or "
                "neither (the generator then builds and drives its own)")
        #: Whether this generator built (so drives and closes) its stack.
        self._owns_stack = stack is None
        if stack is None:
            cluster_config = None
            if config.cluster is not None:
                from repro.cluster import ClusterConfig

                cluster_config = ClusterConfig(
                    replicas=config.cluster,
                    seed=derive_seed(config.seed, "cluster"))
            stack = build_stack(
                cluster=cluster_config, batch_verify=config.batch_verify,
                rate_limit=config.rate_limit, observability=observability)
        elif (config.rate_limit, config.cluster, config.batch_verify) != (None,) * 3:
            raise SimulationError(
                "rate_limit, cluster and batch_verify configure the stack a "
                "generator builds for itself; this one was handed a stack -- "
                "set ScenarioSpec.rpc_rate_limit / ScenarioSpec.cluster, or "
                "build_stack(batch_verify=...), where that stack is built")
        self.stack = stack
        self.scheduler = scheduler or EventScheduler(stack.clock)
        self.clock = stack.clock
        self.rpc = stack.rpc
        self.manage_blocks = manage_blocks
        self.oflw3_backend_key = oflw3_backend_key

        #: The stack's ``repro.obs`` facade (``observability`` configures only
        #: a stack built here); ``None``, the default, keeps the run
        #: observation-free.
        self.obs = stack.obs
        stack.registry.register_collector(
            lambda reg: collect_loadgen(reg, self._obs_sample()))

        seed = config.seed
        self.mix = RequestMix(config.mix, seed=derive_seed(seed, "mix"))
        self.clients = ClientPool(config.clients, label_prefix=label_prefix)
        self.sender_selector = ZipfSelector(
            config.clients, config.zipf_exponent, seed=derive_seed(seed, "senders"))
        self.recipient_selector = ZipfSelector(
            config.clients, config.zipf_exponent, seed=derive_seed(seed, "recipients"))
        self.object_selector = ZipfSelector(
            config.num_objects, config.zipf_exponent, seed=derive_seed(seed, "objects"))
        self.arrivals: ArrivalProcess = make_arrivals(
            config.arrival, config.rate, seed=derive_seed(seed, "arrivals"),
            duration=config.duration_seconds,
            spike_start=config.duration_seconds / 3.0,
            spike_duration=config.duration_seconds / 6.0,
        )
        self._op_rng = make_rng(derive_seed(seed, "op-details"))

        self.ops: Dict[str, OpStats] = {}
        self.confirmation = LatencyStats(unit="s")
        self.offered = 0
        self.tx_mined = 0
        #: Transfers whose including block landed before the load window
        #: closed -- the saturation metric (excludes the drain tail).
        self.tx_mined_in_window = 0
        #: Closed-loop transfers whose receipt never arrived within the poll
        #: budget.  Counted separately: the submission itself already counted
        #: as a (successful) request, so folding the timeout into the per-op
        #: error stats would double-count the attempt.
        self.receipt_timeouts = 0
        self._outstanding: Dict[str, float] = {}
        self._load_done = False
        self._cids: List[str] = []
        self._ipfs_node_name: Optional[str] = None
        self._installed = False
        self._start_sim: float = 0.0
        self._start_height: int = 0
        self._mempool_peak = 0
        self._wall_started: float = 0.0

    # -- setup -------------------------------------------------------------------

    @property
    def node(self) -> EthereumNode:
        """The (possibly replaced-after-restart) chain node."""
        return self.stack.node

    def _op(self, name: str) -> OpStats:
        stats = self.ops.get(name)
        if stats is None:
            stats = self.ops[name] = OpStats(name)
        return stats

    def _setup_population(self) -> None:
        self.clients.fund(self.stack.faucet, self.config.fund_wei)
        ipfs = IpfsNode(f"{self.label_prefix}-ipfs", swarm=self.stack.swarm)
        self.rpc.gateway.serve_ipfs_node(ipfs)
        self._ipfs_node_name = ipfs.name
        rng = make_rng(derive_seed(self.config.seed, "objects-content"))
        for index in range(self.config.num_objects):
            payload = bytes(rng.integers(0, 256, size=self.config.payload_bytes,
                                         dtype="uint8"))
            self._cids.append(str(ipfs.add_bytes(payload).cid))

    # -- operations ---------------------------------------------------------------

    def _fire(self, client_index: int) -> None:
        self._dispatch(self.mix.sample(), client_index)

    def _dispatch(self, kind: str, client_index: int) -> None:
        if kind == "oflw3" and self.oflw3_backend_key is None:
            kind = "read"
        if kind == "analytics" and self.rpc.gateway.analytics is None:
            kind = "read"
        handler = {
            "transfer": self._do_transfer,
            "read": self._do_read,
            "ipfs": self._do_ipfs,
            "oflw3": self._do_oflw3,
            "analytics": self._do_analytics,
        }[kind]
        handler(client_index)

    def _do_transfer(self, client_index: int) -> Optional[str]:
        stats = self._op("transfer")
        keypair = self.clients.keypairs[client_index]
        recipient_index = self.recipient_selector.sample()
        if recipient_index == client_index:
            recipient_index = (recipient_index + 1) % self.clients.size
        tx = Transaction(
            sender=self.clients.addresses[client_index],
            to=self.clients.addresses[recipient_index],
            value=self.config.transfer_value_wei,
            nonce=self.clients.next_nonce[client_index],
            gas_limit=21_000,
            gas_price=GAS_PRICE_TIERS[int(self._op_rng.integers(len(GAS_PRICE_TIERS)))],
        )
        tx.sign(keypair)
        started = time.perf_counter()
        try:
            tx_hash = self.rpc.eth.send_transaction(tx)
        except ReproError as error:
            stats.record_error(error, time.perf_counter() - started)
            return None
        stats.record_success(time.perf_counter() - started)
        # Only an accepted submission consumes the client-side nonce; a
        # rejected one retries the same nonce so the sequence never gaps.
        self.clients.next_nonce[client_index] += 1
        self._outstanding[tx_hash] = self.clock.now
        self._note_mempool_depth()
        return tx_hash

    def _do_read(self, client_index: int) -> None:
        stats = self._op("read")
        started = time.perf_counter()
        try:
            if self._op_rng.integers(2):
                self.rpc.eth.get_balance(
                    str(self.clients.addresses[self.recipient_selector.sample()]))
            else:
                _ = self.rpc.eth.block_number
        except ReproError as error:
            stats.record_error(error, time.perf_counter() - started)
            return
        stats.record_success(time.perf_counter() - started)

    def _do_ipfs(self, client_index: int) -> None:
        stats = self._op("ipfs")
        cid = self._cids[self.object_selector.sample() % len(self._cids)]
        started = time.perf_counter()
        try:
            self.rpc.ipfs.cat(cid, node=self._ipfs_node_name)
        except ReproError as error:
            stats.record_error(error, time.perf_counter() - started)
            return
        stats.record_success(time.perf_counter() - started)

    def _do_oflw3(self, client_index: int) -> None:
        stats = self._op("oflw3")
        started = time.perf_counter()
        try:
            self.rpc.call("oflw3_health", backend=self.oflw3_backend_key)
        except ReproError as error:
            stats.record_error(error, time.perf_counter() - started)
            return
        stats.record_success(time.perf_counter() - started)

    def _do_analytics(self, client_index: int) -> None:
        """One analytical read against the attached columnar replica."""
        stats = self._op("analytics")
        choice = int(self._op_rng.integers(3))
        started = time.perf_counter()
        try:
            if choice == 0:
                self.rpc.call("analytics_leaderboard", name="payments", limit=10)
            elif choice == 1:
                self.rpc.call("analytics_feeSummary")
            else:
                self.rpc.call("analytics_chainStatistics")
        except ReproError as error:
            stats.record_error(error, time.perf_counter() - started)
            return
        stats.record_success(time.perf_counter() - started)

    def _obs_sample(self) -> Dict[str, Any]:
        """Saturation counters sampled into the unified metrics registry."""
        transfer = self.ops.get("transfer")
        return {
            "offered": self.offered,
            "submitted": transfer.successes if transfer else 0,
            "mined": self.tx_mined,
            "timeouts": self.receipt_timeouts,
            "outstanding": len(self._outstanding),
        }

    def _note_mempool_depth(self) -> None:
        depth = len(self.node.chain.mempool)
        if depth > self._mempool_peak:
            self._mempool_peak = depth

    # -- processes ----------------------------------------------------------------

    def _arrival_loop(self) -> Generator:
        """Open loop: fire arrivals until the configured duration elapses."""
        end = self.clock.now + self.config.duration_seconds
        while True:
            gap = self.arrivals.next_gap(self.clock.now)
            if self.clock.now + gap >= end:
                break
            yield gap
            self.offered += 1
            self._fire(self.sender_selector.sample())
        self._load_done = True

    def _client_loop(self, client_index: int) -> Generator:
        """Closed loop: think, fire, await the transfer receipt, repeat."""
        rng = make_rng(derive_seed(self.config.seed, f"client-{client_index}"))
        end = self._start_sim + self.config.duration_seconds
        while self.clock.now < end:
            think = float(rng.exponential(self.config.think_time_seconds))
            if self.clock.now + think >= end:
                break
            yield think
            self.offered += 1
            kind = self.mix.sample()
            if kind == "transfer":
                tx_hash = self._do_transfer(client_index)
                if tx_hash is None:
                    continue
                submitted_at = self._outstanding.pop(tx_hash)
                polls = 0
                while not self.node.chain.has_receipt(tx_hash):
                    polls += 1
                    if polls > self.config.receipt_timeout_polls:
                        self.receipt_timeouts += 1
                        break
                    yield RECEIPT_POLL_SECONDS
                else:
                    self._account_mined(tx_hash, submitted_at)
            else:
                self._dispatch(kind, client_index)
        self._register_client_done()

    def _register_client_done(self) -> None:
        self._clients_active -= 1
        if self._clients_active <= 0:
            self._load_done = True

    def _reaper(self) -> Generator:
        """Open loop: match mined receipts back to their submission times."""
        while not self._load_done or self._outstanding:
            yield RECEIPT_POLL_SECONDS
            if not self._outstanding:
                continue
            chain = self.node.chain
            mined = [tx_hash for tx_hash in self._outstanding
                     if chain.has_receipt(tx_hash)]
            for tx_hash in mined:
                self._account_mined(tx_hash, self._outstanding.pop(tx_hash))

    def _account_mined(self, tx_hash: str, submitted_at: float) -> None:
        """Confirmation latency from submission to the including block."""
        chain = self.node.chain
        receipt = chain.get_receipt(tx_hash)
        block_timestamp = chain.get_block(receipt.block_number).timestamp
        self.confirmation.record(max(0.0, block_timestamp - submitted_at))
        self.tx_mined += 1
        if block_timestamp <= self._start_sim + self.config.duration_seconds:
            self.tx_mined_in_window += 1

    def _producer(self) -> Generator:
        """Mine on the slot cadence while load or outstanding transfers remain.

        Unlike the legacy blocking flow, production here never *advances* the
        shared clock: the process sleeps to the next slot boundary through
        the scheduler and mines at the current time, so arrival events keep
        firing on their own schedule and the offered rate stays honest.
        """
        slot = self.node.chain.config.slot_seconds
        while not self._load_done or self._outstanding:
            gap = slot - (self.clock.now % slot)
            if gap <= 1e-9:
                gap = slot
            yield gap
            # One block per slot, shared with any co-resident producer: in
            # attached mode the scenario's own block producer mines while
            # tasks are active, and minting a second block into the same
            # slot would double the modeled Sepolia cadence.  This producer
            # only fills slots nobody else has -- which standalone is every
            # slot, and attached is the post-task drain tail.
            chain = self.node.chain
            tip = chain.latest_block
            if tip.number > 0 and (chain.consensus.slot_at(tip.timestamp)
                                   == chain.consensus.slot_at(self.clock.now)):
                continue
            self._note_mempool_depth()
            # On a cluster this is leader rotation and gossip, so every
            # slot's block comes from whichever replica the schedule elects.
            self.node.produce_pending(advance_clock=False)

    # -- execution ----------------------------------------------------------------

    def install(self, *, delay: float = 0.0) -> None:
        """Spawn the load processes on the scheduler."""
        if self._installed:
            raise SimulationError("a LoadGenerator installs exactly once")
        self._installed = True
        self._wall_started = time.perf_counter()
        self._setup_population()
        self._start_sim = self.clock.now + delay
        self._start_height = self.node.block_number
        if self.config.mode == "open":
            self.scheduler.spawn(self._arrival_loop(), delay=delay,
                                 name=f"{self.label_prefix}-arrivals")
            self.scheduler.spawn(self._reaper(), delay=delay,
                                 name=f"{self.label_prefix}-reaper")
        else:
            self._clients_active = self.clients.size
            for index in range(self.clients.size):
                self.scheduler.spawn(self._client_loop(index), delay=delay,
                                     name=f"{self.label_prefix}-client-{index}")
        if self.manage_blocks:
            self.scheduler.spawn(self._producer(),
                                 name=f"{self.label_prefix}-producer")

    def finalize(self) -> LoadReport:
        """Assemble the report after the scheduler has drained."""
        node = self.node
        self._note_mempool_depth()
        # Read, never create: _op() would side-effect a zero-count entry
        # into the ops snapshot and make finalize() non-idempotent.
        transfer_stats = self.ops.get("transfer")
        report = LoadReport(
            config=self.config.to_dict(),
            arrival=self.arrivals.describe(),
            makespan_seconds=max(0.0, self.clock.now - self._start_sim),
            wall_seconds=time.perf_counter() - self._wall_started,
            events_executed=self.scheduler.events_executed,
            offered_requests=self.offered,
            ops={name: stats.to_dict() for name, stats in self.ops.items()},
            tx_submitted=transfer_stats.successes if transfer_stats else 0,
            tx_mined=self.tx_mined,
            tx_mined_in_window=self.tx_mined_in_window,
            receipt_timeouts=self.receipt_timeouts,
            tx_confirmation=(self.confirmation.to_dict()
                             if len(self.confirmation) else {}),
            blocks_produced=node.block_number - self._start_height,
            mempool_max_depth=self._mempool_peak,
            rpc_stats=self.rpc.gateway.metrics.snapshot(include_latency=False),
            obs_stats=self.obs.stats_dict() if self.obs is not None else None,
            batchverify_stats=self._batchverify_stats(),
        )
        return report

    def _batchverify_stats(self) -> Optional[Dict[str, Any]]:
        """Deferred-verify counters when the chain deferred verification."""
        chain = self.node.chain
        return chain.batchverify_stats() if chain.batchverify is not None else None

    def run(self) -> LoadReport:
        """Install, drain the event queue, report, and close the stack."""
        if not self._owns_stack:
            raise SimulationError(
                "run() drives a generator's own stack; one handed a stack "
                "is driven by that stack's scheduler")
        try:
            self.install()
            self.scheduler.run(max_events=self.config.max_events)
            return self.finalize()
        finally:
            self.stack.close()


# -- sweeps and the shared transfer fixture -------------------------------------


def presigned_transfers(num_txs: int, num_senders: int, label: str,
                        fund_wei: Optional[int] = None,
                        node: Optional[EthereumNode] = None):
    """A funded node plus ``num_txs`` signed transfers, ready to submit.

    The ingest-workload fixture of ``bench/run.py``'s ``ingest`` and
    ``wire_mixed`` workloads.  Pass ``node`` to fund and target an existing
    stack (e.g. a cluster facade) instead of a fresh single node.
    """
    if num_txs <= 0 or num_senders <= 0:
        raise SimulationError("num_txs and num_senders must be positive")
    if node is None:
        node = EthereumNode(config=ChainConfig(), backend=default_registry())
    faucet = Faucet(node)
    keypairs = [KeyPair.from_label(f"{label}-{index}")
                for index in range(num_senders)]
    for keypair in keypairs:
        faucet.drip(keypair.address, fund_wei or ether_to_wei(5))
    sink = Address(KeyPair.from_label(f"{label}-sink").address)
    transactions = []
    per_sender = (num_txs + num_senders - 1) // num_senders
    for keypair in keypairs:
        sender = Address(keypair.address)
        for nonce in range(per_sender):
            if len(transactions) >= num_txs:
                break
            tx = Transaction(sender=sender, to=sink, value=1, nonce=nonce,
                             gas_limit=21_000, gas_price=10**9)
            tx.sign(keypair)
            transactions.append(tx)
    return node, transactions


def run_sweep(config: LoadGenConfig, rates: List[float]) -> SweepReport:
    """Run the same workload at each offered rate; find the saturation knee."""
    if not rates:
        raise SimulationError("a sweep needs at least one offered rate")
    if config.mode != "open":
        # Only the open-loop arrival process consumes the offered rate; a
        # closed-loop sweep would run the identical workload at every point
        # and report a fabricated capacity curve.
        raise SimulationError(
            "saturation sweeps are open-loop (the offered rate drives the "
            f"arrival process); got mode={config.mode!r}")
    points: List[SweepPoint] = []
    transfer_weight = RequestMix(config.mix).weight("transfer")
    for rate in sorted(rates):
        generator = LoadGenerator(config.with_overrides(rate=float(rate)))
        report = generator.run()
        points.append(SweepPoint.from_report(
            float(rate), float(rate) * transfer_weight, report))
    return SweepReport(points=points)
