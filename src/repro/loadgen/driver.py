"""The background-load generator a simnet scenario attaches to its stack.

Simulated clients fire skewed, bursty request mixes at the JSON-RPC gateway
on the simulated clock.  One arrival process (Poisson or flash crowd)
schedules requests independent of completions, the way internet traffic
actually arrives; confirmation latency is accounted by a reaper that matches
mined receipts back to submission times.

The generator runs on the :class:`~repro.system.stack.Stack` and the
:class:`~repro.simnet.events.EventScheduler` it is handed: the simnet
scenario runner injects background load into a running marketplace scenario
this way.  All request traffic crosses the stack's gateway through
:class:`~repro.rpc.client.MarketplaceClient`, so the gateway's request
metrics count it exactly as they would any other client's.

The generator mines nothing: :func:`repro.simnet.runner.slot_producer`
mines while :meth:`LoadGenerator.busy` holds, and a standalone generator
spawns it beside :meth:`LoadGenerator.install`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from repro.loadgen.report import LoadReport
from repro.loadgen.stats import LatencyStats, OpStats
from repro.loadgen.workload import DEFAULT_MIX, ClientPool, RequestMix
from repro.obs.adapters import collect_loadgen
from repro.simnet.events import EventScheduler
from repro.system.stack import Stack
from repro.utils.rng import derive_seed, make_rng
from repro.utils.units import ether_to_wei

#: How often pollers re-check for receipts (half a Sepolia slot).
RECEIPT_POLL_SECONDS = 6.0

#: Gas-price tiers (wei) sampled per transfer so fee-priority ordering in the
#: mempool is actually exercised under load.
GAS_PRICE_TIERS = (10**9, 2 * 10**9, 5 * 10**9)

#: Prefix of the clients' key labels, the IPFS node's name and the scheduler
#: processes' names: ``bg-client-<i>``, ``bg-ipfs``, ``bg-arrivals``.
LABEL_PREFIX = "bg"


@dataclass(frozen=True)
class LoadGenConfig:
    """Declarative description of one load-generation run."""

    clients: int = 100
    duration_seconds: float = 300.0
    rate: float = 20.0
    """Arrivals per simulated second (total, across all clients)."""

    arrival: str = "poisson"  # poisson | flashcrowd

    mix: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    zipf_exponent: float = 1.1
    """Skew of sender and content popularity (0 = uniform)."""

    payload_bytes: int = 2048
    num_objects: int = 64
    """Pre-seeded IPFS objects served to ``ipfs`` ops."""

    seed: int = 7
    transfer_value_wei: int = 1_000
    fund_wei: int = ether_to_wei(5)

    def __post_init__(self) -> None:
        if self.clients <= 0:
            raise SimulationError(f"clients must be positive, got {self.clients}")
        if self.duration_seconds <= 0:
            raise SimulationError(
                f"duration_seconds must be positive, got {self.duration_seconds}")
        if self.rate <= 0:
            raise SimulationError(f"rate must be positive, got {self.rate}")
        if self.num_objects <= 0:
            raise SimulationError(f"num_objects must be positive, got {self.num_objects}")
        if self.payload_bytes <= 0:
            raise SimulationError(f"payload_bytes must be positive, got {self.payload_bytes}")

    def to_dict(self) -> dict:
        return {
            "clients": self.clients,
            "duration_seconds": self.duration_seconds,
            "rate": self.rate,
            "arrival": self.arrival,
            "mix": dict(self.mix),
            "zipf_exponent": self.zipf_exponent,
            "payload_bytes": self.payload_bytes,
            "num_objects": self.num_objects,
            "seed": self.seed,
        }


class LoadGenerator:
    """Drives background load against a marketplace stack.

    The simnet runner hands over its shared ``stack`` and the ``scheduler``
    on that stack's clock, and calls :meth:`install` / :meth:`finalize`
    around the scenario's own event loop.
    """

    def __init__(
        self,
        config: LoadGenConfig,
        *,
        stack: Stack,
        scheduler: EventScheduler,
    ) -> None:
        self.config = config
        self.stack = stack
        self.scheduler = scheduler
        self.clock = stack.clock
        self.rpc = stack.rpc
        stack.registry.register_collector(
            lambda reg: collect_loadgen(reg, self._obs_sample()))

        seed = config.seed
        self.mix = RequestMix(config.mix, seed=derive_seed(seed, "mix"))
        self.clients = ClientPool(config.clients, LABEL_PREFIX)
        self.sender_selector = ZipfSelector(
            config.clients, config.zipf_exponent, seed=derive_seed(seed, "senders"))
        self.recipient_selector = ZipfSelector(
            config.clients, config.zipf_exponent, seed=derive_seed(seed, "recipients"))
        self.object_selector = ZipfSelector(
            config.num_objects, config.zipf_exponent, seed=derive_seed(seed, "objects"))
        self.arrivals: ArrivalProcess = make_arrivals(
            config.arrival, config.rate, seed=derive_seed(seed, "arrivals"),
            spike_start=config.duration_seconds / 3.0,
            spike_duration=config.duration_seconds / 6.0,
        )
        self._op_rng = make_rng(derive_seed(seed, "op-details"))

        self.ops: Dict[str, OpStats] = {}
        self.confirmation = LatencyStats(unit="s")
        self.offered = 0
        self.late_arrivals = 0
        self.tx_mined = 0
        #: Transfers whose including block landed before the load window
        #: closed -- the saturation metric (excludes the drain tail).
        self.tx_mined_in_window = 0
        self._outstanding: Dict[str, float] = {}
        self._load_done = False
        self._cids: List[str] = []
        self._ipfs_node_name: Optional[str] = None
        self._installed = False
        self._start_sim: float = 0.0
        self._start_height: int = 0

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
        ipfs = IpfsNode(f"{LABEL_PREFIX}-ipfs", swarm=self.stack.swarm)
        self.rpc.gateway.serve_ipfs_node(ipfs)
        self._ipfs_node_name = ipfs.name
        rng = make_rng(derive_seed(self.config.seed, "objects-content"))
        for index in range(self.config.num_objects):
            payload = bytes(rng.integers(0, 256, size=self.config.payload_bytes,
                                         dtype="uint8"))
            self._cids.append(str(ipfs.add_bytes(payload).cid))

    # -- operations ---------------------------------------------------------------

    def _fire(self, client_index: int) -> None:
        kind = self.mix.sample()
        if kind == "analytics" and self.rpc.gateway.analytics is None:
            kind = "read"
        handler = {
            "transfer": self._do_transfer,
            "read": self._do_read,
            "ipfs": self._do_ipfs,
            "analytics": self._do_analytics,
        }[kind]
        stats = self._op(kind)
        try:
            handler(client_index)
        except ReproError as error:
            stats.record_error(error)
            return
        stats.record_success()

    def _do_transfer(self, client_index: int) -> None:
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
        tx_hash = self.rpc.eth.send_transaction(tx)
        # Only an accepted submission consumes the client-side nonce; a
        # rejected one retries the same nonce so the sequence never gaps.
        self.clients.next_nonce[client_index] += 1
        self._outstanding[tx_hash] = self.clock.now

    def _do_read(self, client_index: int) -> None:
        if self._op_rng.integers(2):
            self.rpc.eth.get_balance(
                str(self.clients.addresses[self.recipient_selector.sample()]))
        else:
            _ = self.rpc.eth.block_number

    def _do_ipfs(self, client_index: int) -> None:
        cid = self._cids[self.object_selector.sample() % len(self._cids)]
        self.rpc.ipfs.cat(cid, node=self._ipfs_node_name)

    def _do_analytics(self, client_index: int) -> None:
        """One analytical read against the attached columnar replica."""
        choice = int(self._op_rng.integers(3))
        if choice == 0:
            self.rpc.call("analytics_leaderboard", name="payments", limit=10)
        elif choice == 1:
            self.rpc.call("analytics_feeSummary")
        else:
            self.rpc.call("analytics_chainStatistics")

    def _obs_sample(self) -> Dict[str, Any]:
        """Saturation counters sampled into the unified metrics registry."""
        transfer = self.ops.get("transfer")
        return {
            "offered": self.offered,
            "submitted": transfer.successes if transfer else 0,
            "mined": self.tx_mined,
            "outstanding": len(self._outstanding),
        }

    # -- processes ----------------------------------------------------------------

    def busy(self) -> bool:
        """Whether arrivals are still due or submitted transfers unmined."""
        return not self._load_done or bool(self._outstanding)

    def _arrival_loop(self) -> Generator:
        """Fire arrivals on their own timeline until the window closes: one
        past due (a blocking wallet wait moved the clock) fires late."""
        due = self._start_sim
        end = due + self.config.duration_seconds
        while True:
            due += self.arrivals.next_gap(due)
            if due >= end:
                break
            yield max(0.0, due - self.clock.now)
            if self.clock.now - due > 1e-9:
                self.late_arrivals += 1
            self.offered += 1
            self._fire(self.sender_selector.sample())
        self._load_done = True

    def _reaper(self) -> Generator:
        """Match mined receipts back to their submission times."""
        while self.busy():
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

    # -- execution ----------------------------------------------------------------

    def install(self, *, delay: float = 0.0) -> None:
        """Spawn the arrival and reaper processes on the scheduler."""
        if self._installed:
            raise SimulationError("a LoadGenerator installs exactly once")
        self._installed = True
        self._setup_population()
        self._start_sim = self.clock.now + delay
        self._start_height = self.node.block_number
        self.scheduler.spawn(self._arrival_loop(), delay=delay,
                             name=f"{LABEL_PREFIX}-arrivals")
        self.scheduler.spawn(self._reaper(), delay=delay,
                             name=f"{LABEL_PREFIX}-reaper")

    def finalize(self) -> LoadReport:
        """Assemble the report after the scheduler has drained."""
        # Read, never create: _op() would side-effect a zero-count entry
        # into the ops snapshot and make finalize() non-idempotent.
        transfer_stats = self.ops.get("transfer")
        return LoadReport(
            config=self.config.to_dict(),
            arrival=self.arrivals.describe(),
            makespan_seconds=max(0.0, self.clock.now - self._start_sim),
            events_executed=self.scheduler.events_executed,
            offered_requests=self.offered,
            late_arrivals=self.late_arrivals,
            ops={name: stats.to_dict() for name, stats in self.ops.items()},
            tx_submitted=transfer_stats.successes if transfer_stats else 0,
            tx_mined=self.tx_mined,
            tx_mined_in_window=self.tx_mined_in_window,
            tx_confirmation=(self.confirmation.to_dict()
                             if len(self.confirmation) else {}),
            blocks_produced=self.node.block_number - self._start_height,
            mempool_max_depth=self.node.chain.mempool.max_depth,
            rpc_requests_total=self.rpc.gateway.metrics.requests_total,
        )


# -- the shared transfer fixture ------------------------------------------------


def presigned_transfers(num_txs: int, num_senders: int, label: str):
    """A fresh node, its senders funded with 5 ETH each, plus ``num_txs``
    signed transfers, ready to submit.

    The ingest-workload fixture of ``bench/run.py``'s ``ingest`` and
    ``wire_mixed`` workloads.
    """
    if num_txs <= 0 or num_senders <= 0:
        raise SimulationError("num_txs and num_senders must be positive")
    node = EthereumNode(config=ChainConfig(), backend=default_registry())
    faucet = Faucet(node)
    keypairs = [KeyPair.from_label(f"{label}-{index}")
                for index in range(num_senders)]
    for keypair in keypairs:
        faucet.drip(keypair.address, ether_to_wei(5))
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
