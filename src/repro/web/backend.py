"""The buyer's backend service (the Flask application of the paper).

The model buyer runs this service on a workstation: it owns the connection to
the blockchain node and the IPFS node, caches retrieved models, runs the
one-shot FL aggregation and the incentive computation, and exposes the whole
thing as REST routes that the DApp front end calls.

Routes
------
``GET  /api/health``                      liveness probe
``POST /api/task``                        deploy the FLTask contract
``GET  /api/task/<address>``              task spec + on-chain status
``GET  /api/task/<address>/cids``         CIDs submitted so far (gas-free read)
``POST /api/task/<address>/retrieve``     fetch all models from IPFS
``POST /api/task/<address>/aggregate``    run the one-shot aggregation
``POST /api/task/<address>/incentives``   compute LOO / Shapley contributions
``POST /api/task/<address>/pay``          execute the on-chain payments
``GET  /api/task/<address>/report``       consolidated experiment report
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.errors import WebError
from repro.data.dataset import Dataset
from repro.fl.model_update import ModelUpdate
from repro.fl.oneshot import make_aggregator
from repro.fl.oneshot.base import AggregationResult
from repro.incentives import allocate_budget, leave_one_out, shapley_monte_carlo
from repro.incentives.contribution import ContributionReport
from repro.ipfs.node import IpfsNode
from repro.ml.trainer import evaluate_model
from repro.utils.units import format_ether
from repro.web.http import HttpRequest, HttpResponse, Router
from repro.web.wallet import MetaMaskWallet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.rpc.client import MarketplaceClient


@dataclass
class TaskState:
    """Everything the backend caches about one deployed task."""

    contract_address: str
    spec: Dict[str, Any]
    updates: List[ModelUpdate] = field(default_factory=list)
    uploaders: List[str] = field(default_factory=list)
    aggregation: Optional[AggregationResult] = None
    #: Test accuracy of ``aggregation`` (the grand coalition's value).
    aggregate_accuracy: Optional[float] = None
    contribution: Optional[ContributionReport] = None
    payments: Dict[str, int] = field(default_factory=dict)


class BuyerBackend:
    """The buyer's Flask-like application."""

    def __init__(
        self,
        wallet: MetaMaskWallet,
        ipfs: IpfsNode,
        test_dataset: Dataset,
        aggregator_name: str = "pfnm",
        aggregator_kwargs: Optional[Dict[str, Any]] = None,
        rpc: Optional["MarketplaceClient"] = None,
    ) -> None:
        self.wallet = wallet
        self.ipfs = ipfs
        #: The backend's own door to the stack: chain reads go out as
        #: ``eth_call`` and model retrieval as ``ipfs_cat``, through the same
        #: gateway the wallet transacts on.
        self.rpc = (rpc or wallet.rpc).bound_to_ipfs(ipfs)
        self.test_dataset = test_dataset
        self.aggregator_name = aggregator_name
        self.aggregator_kwargs = dict(aggregator_kwargs or {})
        self.tasks: Dict[str, TaskState] = {}
        self.router = Router()
        self._register_routes()

    def _read_contract(self, contract: str, method: str,
                       args: Optional[list] = None) -> Any:
        """Gas-free contract read (``eth_call``) on the buyer's behalf."""
        return self.rpc.eth.call(contract, method, args or [], caller=self.wallet.address)

    # -- route registration -------------------------------------------------------

    def _register_routes(self) -> None:
        """Wire every REST route to its handler."""
        self.router.add_route("GET", "/api/health", self._health)
        self.router.add_route("POST", "/api/task", self._create_task)
        self.router.add_route("GET", "/api/task/<address>", self._task_info)
        self.router.add_route("GET", "/api/task/<address>/cids", self._task_cids)
        self.router.add_route("POST", "/api/task/<address>/retrieve", self._retrieve_models)
        self.router.add_route("POST", "/api/task/<address>/aggregate", self._aggregate)
        self.router.add_route("POST", "/api/task/<address>/incentives", self._incentives)
        self.router.add_route("POST", "/api/task/<address>/pay", self._pay)
        self.router.add_route("GET", "/api/task/<address>/report", self._report)

    def _get_task(self, request: HttpRequest) -> TaskState:
        """Resolve the task addressed by the request or raise a 400."""
        address = request.param("address")
        if address not in self.tasks:
            raise WebError(f"unknown task contract {address}")
        return self.tasks[address]

    # -- handlers -----------------------------------------------------------------

    def _health(self, _request: HttpRequest) -> HttpResponse:
        """Liveness probe with a summary of the backend's connections."""
        return HttpResponse.json_ok(
            {
                "status": "ok",
                "buyer_address": self.wallet.address,
                "chain_id": self.rpc.eth.chain_id,
                "ipfs_peer": self.ipfs.peer_id,
                "tasks": len(self.tasks),
            }
        )

    def _create_task(self, request: HttpRequest) -> HttpResponse:
        """Step 1: deploy the FLTask contract with an escrowed budget."""
        body = request.json_body or {}
        spec = body.get("spec")
        budget_wei = int(body.get("budget_wei", 0))
        if not spec:
            raise WebError("task spec is required")
        receipt = self.wallet.deploy_contract(
            "FLTask", [spec], value_wei=budget_wei, description="Deploy FLTask contract"
        )
        if not receipt.status:
            raise WebError(f"deployment failed: {receipt.revert_reason}")
        address = str(receipt.contract_address)
        self.tasks[address] = TaskState(contract_address=address, spec=dict(spec))
        return HttpResponse.json_ok(
            {
                "contract_address": address,
                "transaction_hash": receipt.transaction_hash,
                "gas_used": receipt.gas_used,
                "fee_eth": format_ether(receipt.fee_wei),
                "budget_eth": format_ether(budget_wei),
            },
            status=201,
        )

    def _task_info(self, request: HttpRequest) -> HttpResponse:
        """Task spec plus live on-chain counters."""
        task = self._get_task(request)
        contract = task.contract_address
        return HttpResponse.json_ok(
            {
                "contract_address": contract,
                "spec": self._read_contract(contract, "spec"),
                "buyer": self._read_contract(contract, "buyer"),
                "budget_wei": self._read_contract(contract, "budget"),
                "cid_count": self._read_contract(contract, "cidCount"),
                "owners": self._read_contract(contract, "owners"),
                "finalized": self._read_contract(contract, "isFinalized"),
            }
        )

    def _task_cids(self, request: HttpRequest) -> HttpResponse:
        """Step 5: download the CIDs from the contract (gas-free)."""
        task = self._get_task(request)
        contract = task.contract_address
        cids = self._read_contract(contract, "getAllCids")
        uploaders = [
            self._read_contract(contract, "getUploader", [index])
            for index in range(len(cids))
        ]
        return HttpResponse.json_ok({"cids": cids, "uploaders": uploaders})

    def _retrieve_models(self, request: HttpRequest) -> HttpResponse:
        """Step 6: fetch every submitted model from IPFS and deserialize it."""
        task = self._get_task(request)
        contract = task.contract_address
        cids = self._read_contract(contract, "getAllCids")
        task.updates = []
        task.uploaders = []
        # What was computed from the previous retrieval is no longer the task's.
        task.aggregation = task.aggregate_accuracy = task.contribution = None
        sizes = []
        for index, cid in enumerate(cids):
            uploader = self._read_contract(contract, "getUploader", [index])
            payload = self.rpc.ipfs.cat(cid)
            sizes.append(len(payload))
            # num_samples metadata is not on-chain; default to 1 (equal weight)
            # unless the caller supplies a mapping in the request body.
            weights = (request.json_body or {}).get("num_samples", {})
            num_samples = int(weights.get(uploader, 1)) if isinstance(weights, dict) else 1
            task.updates.append(
                ModelUpdate.from_payload(payload, num_samples=num_samples, client_id=uploader)
            )
            task.uploaders.append(uploader)
        return HttpResponse.json_ok(
            {
                "retrieved": len(task.updates),
                "total_bytes": int(np.sum(sizes)) if sizes else 0,
                "uploaders": task.uploaders,
            }
        )

    def _make_aggregator(self, name: Optional[str] = None):
        """Instantiate the configured aggregator (or an override)."""
        return make_aggregator(name or self.aggregator_name, **self.aggregator_kwargs)

    def _aggregate(self, request: HttpRequest) -> HttpResponse:
        """Step 7 (first half): run the one-shot FL aggregation."""
        task = self._get_task(request)
        if not task.updates:
            raise WebError("no models retrieved yet; POST .../retrieve first")
        name = (request.json_body or {}).get("algorithm")
        aggregator = self._make_aggregator(name)
        task.aggregation = aggregator.aggregate(task.updates)
        task.aggregate_accuracy = task.aggregation.evaluate(self.test_dataset)
        local_accuracies = {
            update.client_id: evaluate_model(
                update.to_model(), self.test_dataset.features, self.test_dataset.labels
            ).accuracy
            for update in task.updates
        }
        return HttpResponse.json_ok(
            {
                "algorithm": task.aggregation.algorithm,
                "num_updates": task.aggregation.num_updates,
                "aggregate_accuracy": task.aggregate_accuracy,
                "local_accuracies": local_accuracies,
            }
        )

    def _incentives(self, request: HttpRequest) -> HttpResponse:
        """Step 7 (second half): compute per-owner contributions."""
        task = self._get_task(request)
        if not task.updates:
            raise WebError("no models retrieved yet; POST .../retrieve first")
        body = request.json_body or {}
        method = body.get("method", "leave_one_out")
        aggregator = self._make_aggregator(body.get("algorithm"))

        def value_fn(subset):
            if not subset:
                return 0.0
            result = aggregator.aggregate([task.updates[i] for i in subset])
            return result.evaluate(self.test_dataset)

        if method == "leave_one_out":
            # The same algorithm over the same updates: v(N) is already known.
            reuse = task.aggregation is not None and task.aggregation.algorithm == aggregator.name
            task.contribution = leave_one_out(
                len(task.updates), value_fn,
                full_value=task.aggregate_accuracy if reuse else None,
            )
        elif method == "shapley_monte_carlo":
            task.contribution = shapley_monte_carlo(
                len(task.updates), value_fn,
                num_permutations=int(body.get("num_permutations", 50)),
                rng=body.get("seed", 0),
            )
        else:
            raise WebError(f"unknown incentive method {method!r}")
        return HttpResponse.json_ok(task.contribution.to_dict())

    def _pay(self, request: HttpRequest) -> HttpResponse:
        """Execute the payments on-chain, proportional to contribution."""
        task = self._get_task(request)
        if task.contribution is None:
            raise WebError("no contribution report yet; POST .../incentives first")
        contract = task.contract_address
        budget_wei = int(self._read_contract(contract, "budget"))
        body = request.json_body or {}
        plan = allocate_budget(
            task.contribution,
            owner_ids=[update.client_id for update in task.updates],
            budget_wei=budget_wei,
            reserve_fraction=float(body.get("reserve_fraction", 0.0)),
            min_payment_wei=int(body.get("min_payment_wei", 0)),
        )
        results = []
        for owner, amount in plan.amounts_wei.items():
            if amount <= 0:
                continue
            receipt = self.wallet.call_contract(
                contract, "payOwner", [owner, amount],
                description=f"Pay {owner}",
            )
            task.payments[owner] = amount
            results.append(
                {
                    "owner": owner,
                    "amount_eth": format_ether(amount),
                    "transaction_hash": receipt.transaction_hash,
                    "status": receipt.status,
                }
            )
        return HttpResponse.json_ok({"payments": results, "total_eth": format_ether(plan.total_wei)})

    def _report(self, request: HttpRequest) -> HttpResponse:
        """Consolidated view of a task (used by the DApp's results screen)."""
        task = self._get_task(request)
        return HttpResponse.json_ok(
            {
                "contract_address": task.contract_address,
                "spec": task.spec,
                "num_models": len(task.updates),
                "aggregate_accuracy": task.aggregate_accuracy,
                "contribution": task.contribution.to_dict() if task.contribution else None,
                "payments_eth": {
                    owner: format_ether(amount) for owner, amount in task.payments.items()
                },
            }
        )
