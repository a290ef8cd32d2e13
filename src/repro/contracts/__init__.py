"""Gas-metered smart contracts and the framework they run on.

The framework (:mod:`repro.contracts.framework`) plays the role of the EVM +
Solidity runtime: contracts are Python classes whose externally callable
methods are dispatched by a :class:`ContractRegistry` (the chain executor's
*contract backend*), with storage reads/writes, event emission and value
transfers charged against the transaction's gas meter.

Deployed contracts:

* :class:`repro.contracts.cid_storage.CidStorage` -- the contract shown in
  Fig. 2 of the paper: owners upload IPFS CIDs, anyone can read them back.
* :class:`repro.contracts.fl_task.FLTask` -- the full OFL-W3 task contract:
  task specification, escrowed reward budget, CID registry and payments.
"""

from repro.contracts.cid_storage import CidStorage
from repro.contracts.fl_task import FLTask
from repro.contracts.framework import Contract, ContractRegistry, external, payable, view
from repro.contracts.registry import default_registry

__all__ = [
    "CidStorage",
    "FLTask",
    "Contract",
    "ContractRegistry",
    "external",
    "payable",
    "view",
    "default_registry",
]
