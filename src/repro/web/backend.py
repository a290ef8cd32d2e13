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
from numbers import Real
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.errors import SerializationError, WebError
from repro.data.dataset import Dataset
from repro.fl.model_update import ModelUpdate
from repro.fl.oneshot import AGGREGATORS, make_aggregator
from repro.fl.oneshot.base import AggregationResult, OneShotAggregator
from repro.incentives import allocate_budget, leave_one_out, shapley_monte_carlo
from repro.incentives.contribution import ContributionReport
from repro.ipfs.node import IpfsNode
from repro.ml.trainer import evaluate_model
from repro.utils.units import format_ether
from repro.web.http import HttpRequest, HttpResponse, Router
from repro.web.wallet import MetaMaskWallet


@dataclass
class TaskState:
    """Everything the backend caches about one deployed task."""

    contract_address: str
    spec: Dict[str, Any]
    updates: List[ModelUpdate] = field(default_factory=list)
    uploaders: List[str] = field(default_factory=list)
    #: The aggregator ``aggregate`` built; ``incentives`` reuses it for the
    #: same algorithm (PFNM keeps the owner-pair products it computed).
    aggregator: Optional[OneShotAggregator] = None
    aggregation: Optional[AggregationResult] = None
    #: Test accuracy of ``aggregation`` (the grand coalition's value).
    aggregate_accuracy: Optional[float] = None
    contribution: Optional[ContributionReport] = None
    payments: Dict[str, int] = field(default_factory=dict)


def _field(body: Dict[str, Any], name: str, default: Any, kind: Any,
           valid: Callable[[Any], bool], expected: str) -> Any:
    """``body[name]`` (``default`` if absent or null), or a 400 naming the field.

    The value must be an instance of ``kind`` for which ``valid`` holds; a
    bool is no number.
    """
    value = body.get(name)
    if value is None:
        value = default
    if isinstance(value, bool) or not isinstance(value, kind) or not valid(value):
        raise WebError(f"{name!r} must be {expected}, got {value!r}")
    return value


def _is_count(value: Any) -> bool:
    """Whether ``value`` is a positive integer (and not a bool)."""
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


class BuyerBackend:
    """The buyer's Flask-like application."""

    def __init__(
        self,
        wallet: MetaMaskWallet,
        ipfs: IpfsNode,
        test_dataset: Dataset,
        aggregator_name: str = "pfnm",
        aggregator_kwargs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.wallet = wallet
        self.ipfs = ipfs
        #: The backend's own door to the stack: chain reads go out as
        #: ``eth_call`` and model retrieval as ``ipfs_cat``, through the same
        #: gateway the wallet transacts on.
        self.rpc = wallet.rpc.bound_to_ipfs(ipfs)
        self.test_dataset = test_dataset
        self.aggregator_name = aggregator_name
        self.aggregator_kwargs = dict(aggregator_kwargs or {})
        self.tasks: Dict[str, TaskState] = {}

    def _read_contract(self, contract: str, method: str,
                       args: Optional[list] = None) -> Any:
        """Gas-free contract read (``eth_call``) on the buyer's behalf."""
        return self.rpc.eth.call(contract, method, args or [], caller=self.wallet.address)

    # -- routing --------------------------------------------------------------------

    #: Every REST route, registered once on the class: the router passes the
    #: backend to the handler, so a backend never holds its own bound methods.
    routes = Router()

    def dispatch(self, request: HttpRequest) -> HttpResponse:
        """Serve one REST request (what :class:`~repro.web.client.RestClient` calls)."""
        return self.routes.dispatch(request, self)

    def _get_task(self, request: HttpRequest) -> TaskState:
        """Resolve the task addressed by the request or raise a 400."""
        address = request.param("address")
        if address not in self.tasks:
            raise WebError(f"unknown task contract {address}")
        return self.tasks[address]

    # -- handlers -----------------------------------------------------------------

    @routes.route("GET", "/api/health")
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

    @routes.route("POST", "/api/task")
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

    @routes.route("GET", "/api/task/<address>")
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

    @routes.route("GET", "/api/task/<address>/cids")
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

    @routes.route("POST", "/api/task/<address>/retrieve")
    def _retrieve_models(self, request: HttpRequest) -> HttpResponse:
        """Step 6: fetch every submitted model from IPFS and deserialize it."""
        task = self._get_task(request)
        # num_samples metadata is not on-chain; default to 1 (equal weight)
        # unless the caller supplies a mapping in the request body.
        weights = _field(request.json_body or {}, "num_samples", {}, dict,
                         lambda mapping: all(map(_is_count, mapping.values())),
                         "an object of owner address to positive sample count")
        contract = task.contract_address
        cids = self._read_contract(contract, "getAllCids")
        task.updates = []
        task.uploaders = []
        # What was computed from the previous retrieval is no longer the task's.
        task.aggregator = task.aggregation = task.aggregate_accuracy = task.contribution = None
        sizes = []
        for index, cid in enumerate(cids):
            uploader = self._read_contract(contract, "getUploader", [index])
            payload = self.rpc.ipfs.cat(cid)
            sizes.append(len(payload))
            num_samples = weights.get(uploader, 1)
            try:
                update = ModelUpdate.from_payload(payload, num_samples=num_samples,
                                                  client_id=uploader)
            except SerializationError as exc:
                # An owner's upload is untrusted input, not a backend fault.
                raise WebError(f"model {cid} uploaded by {uploader} is not a valid "
                               f"model payload: {exc}") from exc
            task.updates.append(update)
            task.uploaders.append(uploader)
        return HttpResponse.json_ok(
            {
                "retrieved": len(task.updates),
                "total_bytes": int(np.sum(sizes)) if sizes else 0,
                "uploaders": task.uploaders,
            }
        )

    def _aggregator_for(self, task: TaskState, body: Dict[str, Any]) -> OneShotAggregator:
        """The task's aggregator if it runs the requested algorithm, else a new one.

        ``algorithm`` in ``body`` overrides the backend's configured one.
        """
        name = _field(body, "algorithm", self.aggregator_name, str,
                      lambda value: value.lower() in AGGREGATORS,
                      f"one of {sorted(AGGREGATORS)}").lower()
        if task.aggregator is not None and task.aggregator.name == name:
            return task.aggregator
        return make_aggregator(name, **self.aggregator_kwargs)

    @routes.route("POST", "/api/task/<address>/aggregate")
    def _aggregate(self, request: HttpRequest) -> HttpResponse:
        """Step 7 (first half): run the one-shot FL aggregation."""
        task = self._get_task(request)
        aggregator = self._aggregator_for(task, request.json_body or {})
        if not task.updates:
            raise WebError("no models retrieved yet; POST .../retrieve first")
        task.aggregator = aggregator
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

    @routes.route("POST", "/api/task/<address>/incentives")
    def _incentives(self, request: HttpRequest) -> HttpResponse:
        """Step 7 (second half): compute per-owner contributions."""
        task = self._get_task(request)
        body = request.json_body or {}
        method = _field(body, "method", "leave_one_out", str,
                        lambda value: value in ("leave_one_out", "shapley_monte_carlo"),
                        "'leave_one_out' or 'shapley_monte_carlo'")
        aggregator = self._aggregator_for(task, body)
        if method == "shapley_monte_carlo":
            num_permutations = _field(body, "num_permutations", 50, int, _is_count,
                                      "a positive integer")
            seed = _field(body, "seed", 0, int, lambda _: True, "an integer")
        if not task.updates:
            raise WebError("no models retrieved yet; POST .../retrieve first")

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
        else:
            task.contribution = shapley_monte_carlo(
                len(task.updates), value_fn, num_permutations=num_permutations, rng=seed,
            )
        return HttpResponse.json_ok(task.contribution.to_dict())

    @routes.route("POST", "/api/task/<address>/pay")
    def _pay(self, request: HttpRequest) -> HttpResponse:
        """Execute the payments on-chain, proportional to contribution."""
        task = self._get_task(request)
        body = request.json_body or {}
        reserve_fraction = _field(body, "reserve_fraction", 0.0, Real,
                                  lambda value: 0.0 <= value < 1.0, "a number in [0, 1)")
        min_payment_wei = _field(body, "min_payment_wei", 0, int, lambda value: value >= 0,
                                 "a non-negative integer")
        if task.contribution is None:
            raise WebError("no contribution report yet; POST .../incentives first")
        contract = task.contract_address
        budget_wei = int(self._read_contract(contract, "budget"))
        plan = allocate_budget(
            task.contribution,
            owner_ids=[update.client_id for update in task.updates],
            budget_wei=budget_wei,
            reserve_fraction=float(reserve_fraction),
            min_payment_wei=min_payment_wei,
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

    @routes.route("GET", "/api/task/<address>/report")
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
