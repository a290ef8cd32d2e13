"""The two marketplace roles: model owners and the model buyer.

Each role wraps a wallet (on-chain identity), an IPFS node and the relevant
DApp facade, and attributes simulated time to the phases of Fig. 7 while it
executes its part of the workflow.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional

from repro.data.dataset import Dataset
from repro.utils.rng import make_rng
from repro.ipfs.node import IpfsNode
from repro.ml.trainer import TrainingConfig
from repro.system.timing import LatencyModel, TimeBreakdown
from repro.web.backend import BuyerBackend
from repro.web.dapp import BuyerDApp, OwnerDApp
from repro.web.wallet import MetaMaskWallet

OWNER_BLOCKCHAIN_PHASES = ("register_on_chain", "send_cid")
BUYER_BLOCKCHAIN_PHASES = ("contract_deployment", "payment_transactions")


class ModelOwner:
    """A data silo that trains locally and sells its model for tokens."""

    def __init__(
        self,
        name: str,
        wallet: MetaMaskWallet,
        ipfs: IpfsNode,
        dataset: Dataset,
        training_config: Optional[TrainingConfig] = None,
        latency: Optional[LatencyModel] = None,
        seed: Optional[int] = None,
        behavior: Optional[Any] = None,
    ) -> None:
        self.name = name
        self.wallet = wallet
        self.ipfs = ipfs
        self.dataset = dataset
        self.training_config = training_config or TrainingConfig()
        self.latency = latency or LatencyModel()
        self.seed = seed
        #: Optional ``repro.simnet.behaviors.OwnerBehavior``-shaped strategy.
        #: ``None`` (the seed default) is the honest happy path; kept untyped
        #: so the core system layer does not depend on the simulator package.
        self.behavior = behavior
        self._behavior_rng = make_rng(seed if seed is not None else 0,
                                      f"behavior-{name}")
        if behavior is not None:
            self.dataset = behavior.prepare_dataset(dataset, self._behavior_rng)
        self.dapp = OwnerDApp(wallet, ipfs)
        self.breakdown = TimeBreakdown(role=f"owner:{name}")

    # -- helpers ------------------------------------------------------------------

    @property
    def address(self) -> str:
        """The owner's wallet address (appears in the payment table)."""
        return self.wallet.address

    def _timed_chain_call(self, phase: str, fn, *args, **kwargs):
        """Run an on-chain operation, attributing clock movement + confirmation."""
        clock = self.wallet.node.clock
        before = clock.now
        result = fn(*args, **kwargs)
        elapsed = clock.now - before
        self.breakdown.add(phase, elapsed + self.latency.metamask_confirmation_seconds)
        return result

    # -- workflow steps -------------------------------------------------------------

    def join_task(self, contract_address: str) -> Dict[str, Any]:
        """Find the task contract and register as a participant."""
        info = self.dapp.find_task(contract_address)
        self._timed_chain_call("register_on_chain", self.dapp.register)
        return info

    def train(self) -> Dict[str, Any]:
        """Train the local model on private data (off-chain, GPU time)."""
        result = self.dapp.train_local_model(
            self.dataset, config=self.training_config, seed=self.seed
        )
        self.breakdown.add(
            "local_training",
            self.latency.training_time(len(self.dataset), self.training_config.epochs),
        )
        if self.behavior is not None:
            local = self.dapp.session.local_result
            tampered = self.behavior.transform_update(local.update, self._behavior_rng)
            if tampered is not local.update:
                self.dapp.session.local_result = replace(local, update=tampered)
        return result

    def upload_model(self) -> Dict[str, Any]:
        """Upload the model payload to IPFS (Steps 2-3)."""
        if self.behavior is not None:
            dawdle = self.behavior.extra_upload_delay(self._behavior_rng)
            if dawdle > 0:
                # The straggler sits on its trained model: simulated time
                # passes for everyone sharing the clock, and the wait shows
                # up in this owner's Fig. 7 breakdown.
                self.wallet.node.clock.advance(dawdle)
                self.breakdown.add("straggle_wait", dawdle)
        result = self.dapp.upload_model()
        self.breakdown.add("model_upload_ipfs", self.latency.transfer_time(result["payload_bytes"]))
        return result

    def submit_cid(self) -> Dict[str, Any]:
        """Publish the model's CID on the contract (Step 4, paid transaction)."""
        return self._timed_chain_call("send_cid", self.dapp.submit_cid)

    @property
    def archetype(self) -> str:
        """Behavior archetype name ("honest" when no behavior is attached)."""
        return self.behavior.archetype if self.behavior is not None else "honest"

    def drops_out_before(self, phase: str) -> bool:
        """Whether this owner's behavior churns out before ``phase``."""
        if self.behavior is None:
            return False
        return self.behavior.drop_phase == phase

    def dropped_result(self, phase: str, **partial: Any) -> Dict[str, Any]:
        """Result dict for an owner that churned out before ``phase``."""
        return {
            "owner": self.address,
            "archetype": self.archetype,
            "dropped_out": True,
            "dropped_before": phase,
            "total_time": self.breakdown.total,
            **partial,
        }

    def iter_flow(self, contract_address: str, submit=None):
        """The owner-side workflow as a generator, one phase per step.

        Yields ``0.0`` after each phase so a discrete-event scheduler
        (``repro.simnet``) can interleave many owners/tasks; returns
        ``(result_dict, submitted)`` where ``submitted`` says whether a CID
        landed on-chain.  ``submit`` optionally replaces the synchronous CID
        submission with another generator (e.g. the runner's fire-and-forget
        broadcast + receipt poll).  :meth:`run_full_flow` drives this same
        ladder to completion sequentially, so both paths stay identical.
        """
        self.join_task(contract_address)
        yield 0.0
        if self.drops_out_before("train"):
            return self.dropped_result("train"), False
        training = self.train()
        yield 0.0
        if self.drops_out_before("upload"):
            return self.dropped_result("upload", training=training), False
        upload = self.upload_model()
        yield 0.0
        if self.drops_out_before("submit"):
            return self.dropped_result("submit", training=training, upload=upload), False
        submission = self.submit_cid() if submit is None else (yield from submit())
        return {
            "owner": self.address,
            "archetype": self.archetype,
            "dropped_out": False,
            "training": training,
            "upload": upload,
            "submission": submission,
            "total_time": self.breakdown.total,
        }, True

    def run_full_flow(self, contract_address: str) -> Dict[str, Any]:
        """Execute the complete owner-side workflow for one task.

        An owner whose behavior churns out mid-flow returns a partial result
        with ``dropped_out=True`` instead of raising: from the marketplace's
        point of view, a churner is silence, not an error.
        """
        flow = self.iter_flow(contract_address)
        while True:
            try:
                next(flow)
            except StopIteration as stop:
                result, _submitted = stop.value
                return result

    # -- reporting ---------------------------------------------------------------------

    def blockchain_time_fraction(self) -> float:
        """Fraction of this owner's time spent on blockchain interaction."""
        return self.breakdown.blockchain_fraction(OWNER_BLOCKCHAIN_PHASES)


class ModelBuyer:
    """The party that funds the task, aggregates the models and pays owners."""

    def __init__(
        self,
        wallet: MetaMaskWallet,
        ipfs: IpfsNode,
        test_dataset: Dataset,
        aggregator_name: str = "pfnm",
        aggregator_kwargs: Optional[Dict[str, Any]] = None,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        self.wallet = wallet
        self.ipfs = ipfs
        self.test_dataset = test_dataset
        self.latency = latency or LatencyModel()
        self.backend = BuyerBackend(
            wallet=wallet,
            ipfs=ipfs,
            test_dataset=test_dataset,
            aggregator_name=aggregator_name,
            aggregator_kwargs=aggregator_kwargs,
        )
        self.dapp = BuyerDApp(self.backend)
        self.breakdown = TimeBreakdown(role="buyer")
        self.last_aggregation: Optional[Dict[str, Any]] = None
        self.last_incentives: Optional[Dict[str, Any]] = None
        self.last_payments: Optional[Dict[str, Any]] = None

    # -- helpers ------------------------------------------------------------------

    @property
    def address(self) -> str:
        """The buyer's wallet address."""
        return self.wallet.address

    @property
    def task_address(self) -> Optional[str]:
        """Address of the deployed task contract (after Step 1)."""
        return self.dapp.task_address

    def _timed_chain(self, phase: str, fn, *args, **kwargs):
        """Attribute chain-clock movement plus a confirmation to ``phase``."""
        clock = self.wallet.node.clock
        before = clock.now
        result = fn(*args, **kwargs)
        elapsed = clock.now - before
        self.breakdown.add(phase, elapsed + self.latency.metamask_confirmation_seconds)
        return result

    # -- workflow steps -------------------------------------------------------------

    def deploy_task(self, spec: Dict[str, Any], budget_wei: int) -> Dict[str, Any]:
        """Step 1: design and deploy the task contract with the escrow."""
        return self._timed_chain("contract_deployment", self.dapp.deploy_task, spec, budget_wei)

    def download_cids(self) -> Dict[str, Any]:
        """Step 5: read the CIDs from the chain (gas-free, still a network read)."""
        result = self.dapp.download_cids()
        self.breakdown.add("download_cids", self.latency.ipfs_overhead_seconds)
        return result

    def retrieve_models(self, num_samples: Optional[Dict[str, int]] = None) -> Dict[str, Any]:
        """Step 6: fetch every model from IPFS onto the backend workstation."""
        result = self.dapp.retrieve_models(num_samples)
        self.breakdown.add("model_retrieval", self.latency.transfer_time(result["total_bytes"]))
        return result

    def aggregate(self, algorithm: Optional[str] = None) -> Dict[str, Any]:
        """Step 7a: run the one-shot aggregation."""
        result = self.dapp.aggregate(algorithm)
        self.breakdown.add("aggregation", self.latency.aggregation_time(result["num_updates"]))
        self.last_aggregation = result
        return result

    def compute_incentives(self, method: str = "leave_one_out", **kwargs) -> Dict[str, Any]:
        """Step 7b: measure contributions (payment calculation)."""
        result = self.dapp.compute_incentives(method, **kwargs)
        evaluations = int(result.get("num_evaluations", 0))
        self.breakdown.add(
            "payment_calculation",
            self.latency.incentive_time(evaluations) + self.latency.payment_calculation_seconds,
        )
        self.last_incentives = result
        return result

    def pay_owners(self, reserve_fraction: float = 0.0, min_payment_wei: int = 0) -> Dict[str, Any]:
        """Step 7c: execute the on-chain payments."""
        result = self._timed_chain(
            "payment_transactions", self.dapp.pay_owners, reserve_fraction, min_payment_wei
        )
        # One MetaMask confirmation per payment (the timed helper added one).
        extra_confirmations = max(0, len(result.get("payments", [])) - 1)
        self.breakdown.add(
            "payment_transactions",
            extra_confirmations * self.latency.metamask_confirmation_seconds,
        )
        self.last_payments = result
        return result

    # -- reporting ---------------------------------------------------------------------

    def blockchain_time_fraction(self) -> float:
        """Fraction of the buyer's time spent on blockchain interaction."""
        return self.breakdown.blockchain_fraction(BUYER_BLOCKCHAIN_PHASES)

    def results(self) -> Dict[str, Any]:
        """Consolidated results screen from the backend."""
        return self.dapp.results()
