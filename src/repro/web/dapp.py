"""DApp facades: the button-level interfaces of Fig. 3.

The original front end is a React app in Chrome; each button triggers either
a MetaMask transaction or a backend REST call.  These facades reproduce that
surface programmatically:

* :class:`OwnerDApp` -- what a model owner sees (Fig. 3a): connect a wallet,
  look up a task contract, register, train a local model, upload it to IPFS,
  and submit the CID on-chain.
* :class:`BuyerDApp` -- what the model buyer sees (Fig. 3b): deploy a task,
  watch submissions, retrieve and aggregate models, compute incentives and
  pay the owners -- all through the buyer's backend service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import WorkflowError
from repro.data.dataset import Dataset
from repro.fl.client import FLClient
from repro.ipfs.node import IpfsNode
from repro.ml.trainer import TrainingConfig
from repro.utils.units import format_ether
from repro.web.backend import BuyerBackend
from repro.web.client import RestClient
from repro.web.wallet import MetaMaskWallet


@dataclass
class OwnerSession:
    """State the owner DApp keeps between button clicks."""

    task_address: Optional[str] = None
    local_result: Optional[Any] = None
    cid: Optional[str] = None
    cid_index: Optional[int] = None


class OwnerDApp:
    """The model-owner interface (Fig. 3a).

    All stack access -- chain transactions via the wallet, model uploads via
    ``ipfs_add`` -- goes through the wallet's :class:`MarketplaceClient`, so
    the JSON-RPC gateway is the one door for every button.
    """

    def __init__(self, wallet: MetaMaskWallet, ipfs: IpfsNode) -> None:
        self.wallet = wallet
        self.ipfs = ipfs
        self.rpc = wallet.rpc.bound_to_ipfs(ipfs)
        self.session = OwnerSession()

    # -- buttons -------------------------------------------------------------------

    def connect_wallet(self) -> Dict[str, Any]:
        """"Connect wallet" button: returns the connected account summary."""
        return {"address": self.wallet.address, "balance_eth": self.wallet.balance_eth()}

    def find_task(self, contract_address: str) -> Dict[str, Any]:
        """Look up a task contract by address and show its specification."""
        spec = self.wallet.read_contract(contract_address, "spec")
        budget = self.wallet.read_contract(contract_address, "budget")
        self.session.task_address = contract_address
        return {"contract_address": contract_address, "spec": spec,
                "budget_eth": format_ether(budget)}

    def register(self) -> Dict[str, Any]:
        """"Participate" button: register as an owner on the task contract."""
        self._require_task()
        receipt = self.wallet.call_contract(
            self.session.task_address, "registerOwner", [],
            description="Register as model owner",
        )
        return {"status": receipt.status, "transaction_hash": receipt.transaction_hash,
                "fee_eth": format_ether(receipt.fee_wei)}

    def train_local_model(self, dataset: Dataset, config: Optional[TrainingConfig] = None,
                          seed: Optional[int] = None) -> Dict[str, Any]:
        """"Train model" button: run local training on the owner's private data."""
        self._require_task()
        spec = self.wallet.read_contract(self.session.task_address, "spec")
        sizes = tuple(spec.get("model", (784, 100, 10)))
        client = FLClient(self.wallet.address, dataset, layer_sizes=sizes,
                          config=config, seed=seed)
        self.session.local_result = client.train_local()
        return {
            "num_samples": len(dataset),
            "train_accuracy": self.session.local_result.train_accuracy,
            "final_loss": self.session.local_result.history.final_loss,
        }

    def upload_model(self) -> Dict[str, Any]:
        """Step 2+3: upload the trained model to IPFS and receive its CID."""
        if self.session.local_result is None:
            raise WorkflowError("train a local model before uploading")
        payload = self.session.local_result.update.to_payload()
        added = self.rpc.ipfs.add(payload)
        self.session.cid = added["cid"]
        return {"cid": added["cid"], "payload_bytes": added["size"],
                "ipfs_blocks": added["num_blocks"]}

    def submit_cid(self) -> Dict[str, Any]:
        """Step 4: publish the CID on the task contract (a paid transaction)."""
        self._require_task()
        if self.session.cid is None:
            raise WorkflowError("upload the model to IPFS before submitting its CID")
        receipt = self.wallet.call_contract(
            self.session.task_address, "uploadCid", [self.session.cid],
            description="Submit model CID",
        )
        self.session.cid_index = receipt.return_value
        return {
            "status": receipt.status,
            "cid": self.session.cid,
            "cid_index": receipt.return_value,
            "transaction_hash": receipt.transaction_hash,
            "fee_eth": format_ether(receipt.fee_wei),
        }

    def check_payment(self) -> Dict[str, Any]:
        """Show the payment this owner has received so far."""
        self._require_task()
        payments = self.wallet.read_contract(self.session.task_address, "payments")
        amount = payments.get(self.wallet.address, 0)
        return {"payment_eth": format_ether(amount), "balance_eth": self.wallet.balance_eth()}

    def _require_task(self) -> None:
        """Guard used by buttons that need a selected task."""
        if self.session.task_address is None:
            raise WorkflowError("no task selected; call find_task first")


class BuyerDApp:
    """The model-buyer interface (Fig. 3b), backed by the Flask-like service.

    Buttons speak ``oflw3_*`` JSON-RPC (the gateway wraps the backend's REST
    routes), so the buyer's application calls cross the same metered boundary
    as every chain and IPFS interaction.  ``self.client`` keeps the direct
    REST client around for callers that poke routes by path.
    """

    def __init__(self, backend: BuyerBackend) -> None:
        self.backend = backend
        self.client = RestClient(backend)
        self.rpc = backend.wallet.rpc.bound_to_backend(backend)
        self.task_address: Optional[str] = None

    # -- buttons -------------------------------------------------------------------

    def deploy_task(self, spec: Dict[str, Any], budget_wei: int) -> Dict[str, Any]:
        """Step 1: design and deploy the task contract with its escrow."""
        result = self.rpc.oflw3.deploy_task(spec, budget_wei)
        self.task_address = result["contract_address"]
        return result

    def task_status(self) -> Dict[str, Any]:
        """Live view of the task contract (owners registered, CIDs submitted)."""
        self._require_task()
        return self.rpc.oflw3.task(self.task_address)

    def download_cids(self) -> Dict[str, Any]:
        """Step 5: list the CIDs recorded on-chain (gas-free)."""
        self._require_task()
        return self.rpc.oflw3.task_cids(self.task_address)

    def retrieve_models(self, num_samples: Optional[Dict[str, int]] = None) -> Dict[str, Any]:
        """Step 6: pull every model from IPFS onto the backend workstation."""
        self._require_task()
        return self.rpc.oflw3.retrieve_models(self.task_address, num_samples)

    def aggregate(self, algorithm: Optional[str] = None) -> Dict[str, Any]:
        """Step 7a: run the one-shot FL aggregation on the backend."""
        self._require_task()
        return self.rpc.oflw3.aggregate(self.task_address, algorithm)

    def compute_incentives(self, method: str = "leave_one_out", **kwargs) -> Dict[str, Any]:
        """Step 7b: measure each owner's contribution."""
        self._require_task()
        return self.rpc.oflw3.compute_incentives(self.task_address, method, **kwargs)

    def pay_owners(self, reserve_fraction: float = 0.0, min_payment_wei: int = 0) -> Dict[str, Any]:
        """Step 7c: execute the on-chain payments."""
        self._require_task()
        return self.rpc.oflw3.pay_owners(self.task_address, reserve_fraction, min_payment_wei)

    def _require_task(self) -> None:
        """Guard used by buttons that need a deployed task."""
        if self.task_address is None:
            raise WorkflowError("no task deployed; call deploy_task first")
