"""End-to-end experiment driver.

:func:`run_marketplace` builds the entire simulated Web 3.0 environment --
blockchain node, contract registry, IPFS swarm, synthetic dataset, wallets,
one buyer and N owners -- runs the seven-step workflow and collects every
quantity the paper's evaluation section reports:

* Fig. 4 -- local model accuracies vs the aggregated model's accuracy;
* Fig. 5 -- gas fees per transaction category;
* Fig. 6 -- leave-one-out drop accuracies;
* Table 1 -- the per-wallet payment table;
* Fig. 7 -- the execution-time breakdown for owners and the buyer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.chain.node import EthereumNode
from repro.data.dataset import Dataset, train_test_split
from repro.data.partition import partition_dataset
from repro.data.synthetic_mnist import SyntheticMnistConfig, generate_synthetic_mnist
from repro.ipfs.blockstore import BlockStore
from repro.ipfs.node import IpfsNode
from repro.ipfs.swarm import Swarm
from repro.ml.trainer import TrainingConfig
from repro.rpc.client import MarketplaceClient
from repro.rpc.gateway import JsonRpcGateway
from repro.storage.engine import StorageEngine
from repro.system.stack import Stack, build_stack
from repro.system.config import OFLW3Config
from repro.system.costs import GasCostReport, build_gas_cost_report
from repro.system.roles import ModelBuyer, ModelOwner
from repro.system.timing import LatencyModel, TimeBreakdown, merge_breakdowns
from repro.system.workflow import OFLW3Workflow, WorkflowResult
from repro.utils.rng import derive_seed
from repro.utils.units import format_ether
from repro.web.wallet import MetaMaskWallet
from repro.chain.keys import KeyPair


@dataclass
class MarketplaceEnvironment:
    """Every live object of one marketplace run (useful for inspection/tests)."""

    config: OFLW3Config
    #: The serving stack underneath; the properties below read through it, so
    #: a node a restart swaps in is the node every environment on it sees.
    stack: Stack
    buyer: ModelBuyer
    owners: List[ModelOwner]
    train_dataset: Dataset
    test_dataset: Dataset
    workflow: OFLW3Workflow

    @property
    def node(self) -> EthereumNode:
        return self.stack.node

    @property
    def swarm(self) -> Swarm:
        return self.stack.swarm

    @property
    def gateway(self) -> JsonRpcGateway:
        return self.stack.gateway

    @property
    def storage(self) -> StorageEngine:
        return self.stack.engine

    @property
    def cluster(self) -> Optional[Any]:
        """The replication cluster behind ``node`` (``cluster=N``), else ``None``."""
        return self.stack.cluster


@dataclass
class MarketplaceReport:
    """Everything the paper's evaluation section reports, for one run."""

    config: OFLW3Config
    owner_addresses: List[str]
    local_accuracies_by_owner: Dict[str, float]
    aggregate_accuracy: float
    aggregate_algorithm: str
    loo_drop_accuracies: Dict[str, float]
    contributions: Dict[str, float]
    payments_wei: Dict[str, int]
    gas_report: GasCostReport
    owner_breakdowns: List[TimeBreakdown]
    buyer_breakdown: TimeBreakdown
    model_payload_bytes: int
    ipfs_bytes_transferred: int
    workflow_result: WorkflowResult
    model_payload_bytes_by_owner: Dict[str, int] = field(default_factory=dict)
    total_model_payload_bytes: int = 0

    # -- Fig. 4 ---------------------------------------------------------------------

    @property
    def local_accuracies(self) -> List[float]:
        """Local model accuracies in owner order (the bars of Fig. 4).

        Owners with no entry (churned out or lost their submission in a
        simnet scenario) have no bar; with full participation this is one
        accuracy per owner, in owner order.
        """
        return [
            self.local_accuracies_by_owner[a]
            for a in self.owner_addresses
            if a in self.local_accuracies_by_owner
        ]

    @property
    def accuracy_margin_over_worst(self) -> float:
        """Aggregate accuracy minus the worst local accuracy (the 58.87 pp claim)."""
        return self.aggregate_accuracy - min(self.local_accuracies)

    # -- Fig. 6 ---------------------------------------------------------------------

    @property
    def drop_accuracies(self) -> List[float]:
        """Leave-one-out accuracies in owner order (the bars of Fig. 6).

        As with :attr:`local_accuracies`, owners that never contributed a
        model have no entry.
        """
        return [
            self.loo_drop_accuracies[a]
            for a in self.owner_addresses
            if a in self.loo_drop_accuracies
        ]

    @property
    def least_useful_owner(self) -> str:
        """Address of the owner whose removal hurts the least (paper: model 7)."""
        return max(self.loo_drop_accuracies.items(), key=lambda item: item[1])[0]

    # -- Table 1 ---------------------------------------------------------------------

    def payment_rows(self) -> List[dict]:
        """Payment table rows (wallet address, payment in ETH)."""
        return [
            {"wallet_address": address, "payment_eth": format_ether(self.payments_wei.get(address, 0))}
            for address in self.owner_addresses
        ]

    @property
    def total_paid_wei(self) -> int:
        """Total wei paid out to owners."""
        return sum(self.payments_wei.values())

    # -- Fig. 7 ---------------------------------------------------------------------

    def owner_time_breakdown(self) -> TimeBreakdown:
        """Average owner-side time breakdown."""
        return merge_breakdowns(self.owner_breakdowns, role="owner")

    def to_dict(self) -> dict:
        """JSON-friendly summary (used by the examples to print reports)."""
        return {
            "aggregate_accuracy": self.aggregate_accuracy,
            "aggregate_algorithm": self.aggregate_algorithm,
            "local_accuracies": self.local_accuracies,
            "accuracy_margin_over_worst": self.accuracy_margin_over_worst,
            "drop_accuracies": self.drop_accuracies,
            "payments": {a: format_ether(w) for a, w in self.payments_wei.items()},
            "gas": self.gas_report.to_dict(),
            "owner_time": self.owner_time_breakdown().to_dict(),
            "buyer_time": self.buyer_breakdown.to_dict(),
            "model_payload_bytes": self.model_payload_bytes,
            "model_payload_bytes_by_owner": dict(self.model_payload_bytes_by_owner),
            "total_model_payload_bytes": self.total_model_payload_bytes,
        }


def build_environment(
    config: Optional[OFLW3Config] = None,
    *,
    stack: Optional[Stack] = None,
    label_prefix: str = "",
    behaviors: Optional[List[Any]] = None,
    storage: Optional[Any] = None,
    cluster: Optional[int] = None,
) -> MarketplaceEnvironment:
    """Construct (but do not run) the full marketplace environment.

    With no keyword arguments this builds the seed's single-task world on a
    stack of its own (``repro.system.stack.build_stack``): chain node,
    faucet, fully-meshed swarm, gateway.  The discrete-event scenario runner
    (``repro.simnet``) instead passes the one shared ``stack`` many
    concurrent tasks run on, a ``label_prefix`` that keeps wallet key labels
    and IPFS node names collision-free across tasks, and per-owner
    ``behaviors`` (archetypes from ``repro.simnet.behaviors``; ``None``
    entries are honest owners).

    Every wallet and facade in the environment routes its chain/IPFS/backend
    access through the stack's one gateway, so all marketplace traffic
    crosses a single meterable JSON-RPC boundary.

    ``storage`` is a :class:`~repro.storage.StorageConfig` or
    :class:`~repro.storage.StorageEngine`.  The default is an in-memory
    engine, which is bit-for-bit invisible to the experiment; pass a
    log-backed config (CLI: ``python -m repro run --store DIR``) to persist
    the chain WAL, periodic snapshots and every IPFS block under a
    directory that survives the process.

    ``cluster=N`` replaces the single chain node with an N-replica
    replication cluster (``repro.cluster``): the environment's ``node``
    becomes a :class:`~repro.cluster.ClusterNode` gateway that load-balances
    caught-up reads across replicas and routes every write to the current
    rotation leader, and ``env.cluster`` exposes the cluster control plane.
    """
    config = config or OFLW3Config()
    if stack is None:
        cluster_config = None
        if cluster is not None:
            from repro.cluster import ClusterConfig

            cluster_config = ClusterConfig(replicas=cluster, seed=config.seed)
        stack = build_stack(
            storage=storage if storage is not None else StorageEngine(),
            cluster=cluster_config)
    elif storage is not None or cluster is not None or stack.engine is None:
        raise ValueError(
            "a pre-built stack brings its own cluster and engine (pass them to "
            "build_stack), and needs an engine: IPFS blocks live on it")
    engine, node, faucet, swarm, gateway = (
        stack.engine, stack.node, stack.faucet, stack.swarm, stack.gateway)
    latency = LatencyModel()
    if behaviors is not None and len(behaviors) != config.num_owners:
        raise ValueError(
            f"behaviors must have one entry per owner "
            f"({config.num_owners}), got {len(behaviors)}")

    # Dataset: synthetic MNIST stand-in, split, then partitioned across owners.
    dataset = generate_synthetic_mnist(
        SyntheticMnistConfig(
            num_samples=config.num_samples,
            class_similarity=config.class_similarity,
            noise_scale=config.noise_scale,
            variation_scale=config.variation_scale,
            variation_rank=config.variation_rank,
            label_noise=config.label_noise,
            seed=config.seed,
        )
    )
    train_dataset, test_dataset = train_test_split(
        dataset, config.test_fraction, rng=derive_seed(config.seed, "split")
    )
    partition_kwargs: Dict[str, Any] = {}
    if config.partition_scheme == "dirichlet":
        partition_kwargs["alpha"] = config.partition_alpha
    elif config.partition_scheme == "label_skew":
        partition_kwargs["classes_per_client"] = config.classes_per_client
    client_datasets = partition_dataset(
        train_dataset,
        config.num_owners,
        scheme=config.partition_scheme,
        rng=derive_seed(config.seed, "partition"),
        **partition_kwargs,
    )

    # IPFS swarm: one node for the buyer, one per owner, fully meshed (LAN).
    # Each node's block store sits on its own blob namespace of the storage
    # engine, fronted by the engine's shared LRU read cache.
    def _ipfs_node(name: str) -> IpfsNode:
        return IpfsNode(
            name, swarm,
            blockstore=BlockStore(space=engine.blob_space(f"ipfs/{name}")),
        )

    buyer_ipfs = _ipfs_node(f"{label_prefix}buyer")
    owner_ipfs_nodes = [
        _ipfs_node(f"{label_prefix}owner-{i}") for i in range(config.num_owners)
    ]
    swarm.connect_all()

    # Wallets, funded by the faucet; each gets a client bound to the stack's
    # one JSON-RPC door.
    buyer_keys = KeyPair.from_label(f"{label_prefix}buyer-{config.seed}")
    buyer_wallet = MetaMaskWallet(
        buyer_keys, node, gas_price_wei=config.gas_price_wei,
        rpc=MarketplaceClient(gateway, default_ipfs_node=buyer_ipfs.name),
    )
    faucet.drip(buyer_keys.address, config.buyer_funding_wei)

    buyer = ModelBuyer(
        wallet=buyer_wallet,
        ipfs=buyer_ipfs,
        test_dataset=test_dataset,
        aggregator_name=config.aggregator,
        aggregator_kwargs=config.aggregator_kwargs,
        latency=latency,
    )

    training_config = TrainingConfig(
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        epochs=config.local_epochs,
        seed=config.seed,
    )
    owners: List[ModelOwner] = []
    for index in range(config.num_owners):
        keys = KeyPair.from_label(f"{label_prefix}owner-{index}-{config.seed}")
        wallet = MetaMaskWallet(
            keys, node, gas_price_wei=config.gas_price_wei,
            rpc=MarketplaceClient(gateway, default_ipfs_node=owner_ipfs_nodes[index].name),
        )
        faucet.drip(keys.address, config.owner_funding_wei)
        owners.append(
            ModelOwner(
                name=f"{label_prefix}owner-{index}",
                wallet=wallet,
                ipfs=owner_ipfs_nodes[index],
                dataset=client_datasets[index],
                training_config=training_config,
                latency=latency,
                seed=derive_seed(config.seed, f"owner-model-{index}"),
                behavior=behaviors[index] if behaviors is not None else None,
            )
        )

    workflow = OFLW3Workflow(buyer=buyer, owners=owners)
    return MarketplaceEnvironment(
        config=config,
        stack=stack,
        buyer=buyer,
        owners=owners,
        train_dataset=train_dataset,
        test_dataset=test_dataset,
        workflow=workflow,
    )


def default_task_spec(config: OFLW3Config) -> Dict[str, Any]:
    """The task specification the buyer publishes in Step 1."""
    return {
        "task": "digit-classification",
        "model": list(config.layer_sizes),
        "algorithm": config.aggregator,
        "dataset": "synthetic-mnist",
        "max_owners": config.num_owners,
        "batch_size": config.batch_size,
        "learning_rate": config.learning_rate,
        "local_epochs": config.local_epochs,
    }


def build_marketplace_report(
    env: MarketplaceEnvironment, workflow_result: WorkflowResult
) -> MarketplaceReport:
    """Assemble the evaluation report from a completed workflow run.

    Shared by :func:`run_marketplace` (one sequential task) and the
    discrete-event scenario runner (``repro.simnet``), which executes many
    workflows against one shared chain and reports each one separately.
    """
    config = env.config
    owner_addresses = [owner.address for owner in env.owners]
    aggregation = workflow_result.aggregation
    incentives = workflow_result.incentives

    # Contribution / drop accuracies come back keyed by the update index;
    # updates were retrieved in CID submission order, which matches owner order.
    uploaders = workflow_result.retrieval.get("uploaders", owner_addresses)
    index_to_address = {str(i): uploaders[i] for i in range(len(uploaders))}
    drop_accuracies = {
        index_to_address[idx]: value
        for idx, value in incentives.get("drop_values", {}).items()
    }
    contributions = {
        index_to_address[idx]: value for idx, value in incentives.get("scores", {}).items()
    }

    payments_wei = {
        address: int(amount)
        for address, amount in env.buyer.backend.tasks[workflow_result.task_address].payments.items()
    }

    # Per-owner payload sizes; owners that churned out before uploading simply
    # have no entry.  ``model_payload_bytes`` keeps its historical meaning of
    # "the size of one model payload" (the first uploaded one).
    payload_bytes_by_owner = {
        result["owner"]: int(result["upload"]["payload_bytes"])
        for result in workflow_result.owner_results
        if result.get("upload")
    }
    model_payload_bytes = next(iter(payload_bytes_by_owner.values()), 0)

    return MarketplaceReport(
        config=config,
        owner_addresses=owner_addresses,
        local_accuracies_by_owner=dict(aggregation.get("local_accuracies", {})),
        aggregate_accuracy=float(aggregation.get("aggregate_accuracy", 0.0)),
        aggregate_algorithm=str(aggregation.get("algorithm", config.aggregator)),
        loo_drop_accuracies=drop_accuracies,
        contributions=contributions,
        payments_wei=payments_wei,
        gas_report=build_gas_cost_report(env.node.chain),
        owner_breakdowns=[owner.breakdown for owner in env.owners],
        buyer_breakdown=env.buyer.breakdown,
        model_payload_bytes=model_payload_bytes,
        ipfs_bytes_transferred=env.swarm.total_bytes_transferred(),
        workflow_result=workflow_result,
        model_payload_bytes_by_owner=payload_bytes_by_owner,
        total_model_payload_bytes=sum(payload_bytes_by_owner.values()),
    )


def run_marketplace(
    config: Optional[OFLW3Config] = None,
    environment: Optional[MarketplaceEnvironment] = None,
) -> MarketplaceReport:
    """Run the full marketplace and collect the evaluation report."""
    env = environment or build_environment(config)
    config = env.config

    workflow_result = env.workflow.run(
        default_task_spec(config),
        budget_wei=config.budget_wei,
        incentive_method=config.incentive_method,
        reserve_fraction=config.reserve_fraction,
        min_payment_wei=config.min_payment_wei,
    )
    return build_marketplace_report(env, workflow_result)
