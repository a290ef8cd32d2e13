"""The contract execution framework (EVM + Solidity runtime analogue).

Contracts are Python classes deriving from :class:`Contract`.  Methods
decorated with :func:`external` (state-changing), :func:`payable`
(state-changing and value-accepting) or :func:`view` (read-only) make up the
contract ABI.  Every method receives the :class:`~repro.chain.executor.CallContext`
as its first argument; persistent data lives exclusively in the contract
account's storage dictionary and is accessed through :meth:`Contract.sload`
and :meth:`Contract.sstore`, which charge SLOAD/SSTORE gas exactly like the
EVM.  ``require`` failures raise :class:`~repro.errors.ContractRevert`, which
the executor turns into a failed, rolled-back transaction.

The :class:`ContractRegistry` implements the chain executor's
``ContractBackend`` protocol: it instantiates contracts on creation
transactions and dispatches method calls, enforcing ABI visibility rules
(non-payable methods reject value; view methods cannot write storage).
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, List, Optional, Type

from repro.errors import AbiError, ContractRevert
from repro.chain import gas
from repro.chain.executor import CallContext, CreateResult

_ABI_ATTR = "_contract_abi_kind"


def external(fn: Callable) -> Callable:
    """Mark a method as externally callable and state-changing."""
    setattr(fn, _ABI_ATTR, "external")
    return fn


def payable(fn: Callable) -> Callable:
    """Mark a method as externally callable, state-changing and payable."""
    setattr(fn, _ABI_ATTR, "payable")
    return fn


def view(fn: Callable) -> Callable:
    """Mark a method as externally callable and read-only."""
    setattr(fn, _ABI_ATTR, "view")
    return fn


class Contract:
    """Base class for all contracts.

    Subclasses implement ``constructor(ctx, ...)`` plus ABI methods.  The
    class itself holds no per-deployment state: everything persistent goes
    through :meth:`sstore` / :meth:`sload` into the contract account's
    storage, so chain snapshots capture contract state correctly.
    """

    # -- storage access (gas metered) ----------------------------------------

    def sstore(self, ctx: CallContext, key: str, value: Any) -> None:
        """Write ``value`` to storage slot ``key``, charging SSTORE gas.

        Slots are written, never cleared: ``None`` is refused, since clearing
        would be owed the refund that this gas schedule does not model.
        """
        if value is None:
            raise ContractRevert(f"SSTORE {key}: a slot cannot be cleared")
        if key in ctx.storage:
            ctx.meter.consume(gas.SSTORE_UPDATE, reason=f"SSTORE update {key}")
        else:
            ctx.meter.consume(gas.SSTORE_SET, reason=f"SSTORE set {key}")
        ctx.state.set_storage(ctx.contract_address, key, value)

    def sload(self, ctx: CallContext, key: str, default: Any = None) -> Any:
        """Read storage slot ``key``, charging SLOAD gas."""
        ctx.meter.consume(gas.SLOAD, reason=f"SLOAD {key}")
        return ctx.storage.get(key, default)

    # -- Solidity-style helpers ------------------------------------------------

    @staticmethod
    def require(condition: bool, reason: str = "requirement failed") -> None:
        """Revert the call unless ``condition`` holds (Solidity ``require``)."""
        if not condition:
            raise ContractRevert(reason)

    # -- introspection ----------------------------------------------------------

    @classmethod
    def _memoised(cls, attribute: str, build: Callable[[], Any]) -> Any:
        """``build()`` once per class; a class body does not change at run time.

        The value lives in the class's own ``__dict__`` so a subclass (whose
        body differs) never reads its parent's.
        """
        if attribute not in cls.__dict__:
            setattr(cls, attribute, build())
        return cls.__dict__[attribute]

    @classmethod
    def _build_abi(cls) -> Dict[str, Dict[str, Any]]:
        entries: Dict[str, Dict[str, Any]] = {}
        for name, member in inspect.getmembers(cls, predicate=inspect.isfunction):
            kind = getattr(member, _ABI_ATTR, None)
            if kind is None:
                continue
            signature = inspect.signature(member)
            params = [p for p in signature.parameters.values() if p.name not in ("self", "ctx")]
            entries[name] = {
                "kind": kind,
                "inputs": [p.name for p in params],
                "payable": kind == "payable",
                "view": kind == "view",
            }
        return entries

    @classmethod
    def abi(cls) -> Dict[str, Dict[str, Any]]:
        """Describe the contract's externally callable methods.

        Every call returns fresh dicts, so a caller may edit what it gets.
        """
        entries = cls._memoised("_abi_entries", cls._build_abi)
        return {
            name: {**entry, "inputs": list(entry["inputs"])} for name, entry in entries.items()
        }

    @classmethod
    def _source_size(cls) -> int:
        try:
            source = inspect.getsource(cls)
        except (OSError, TypeError):
            source = cls.__name__ * 64
        return len(source.encode("utf-8"))

    @classmethod
    def code_size(cls) -> int:
        """Byte size of the contract "code" used for deployment gas.

        Uses the length of the class source as a stable proxy for compiled
        bytecode size, so richer contracts cost proportionally more to deploy
        -- the property Fig. 5 depends on.
        """
        return cls._memoised("_code_size", cls._source_size)


class ContractRegistry:
    """Maps contract names to classes and executes deployments and calls.

    This object is handed to the chain as its *contract backend*; one registry
    instance can serve any number of nodes.
    """

    def __init__(self) -> None:
        self._contracts: Dict[str, Type[Contract]] = {}

    def register(self, contract_class: Type[Contract]) -> None:
        """Register ``contract_class`` under its class name."""
        if not (inspect.isclass(contract_class) and issubclass(contract_class, Contract)):
            raise TypeError("register expects a Contract subclass")
        if not callable(getattr(contract_class, "constructor", None)):
            raise TypeError(f"{contract_class.__name__} defines no constructor")
        self._contracts[contract_class.__name__] = contract_class

    def contract_class(self, name: str) -> Optional[Type[Contract]]:
        """The registered class for ``name`` (``None`` if unknown).

        Used by snapshot restoration (``repro.storage``): contracts are
        stateless classes, so recovering a deployed contract is just
        re-instantiating its class and reattaching the account's storage.
        """
        return self._contracts.get(name)

    # -- ContractBackend protocol -----------------------------------------------

    def create(self, name: str, args: List[Any], ctx: CallContext) -> CreateResult:
        """Instantiate contract ``name`` and run its constructor."""
        contract_class = self._contracts.get(name)
        if contract_class is None:
            raise ContractRevert(f"unknown contract type: {name}")
        contract = contract_class()
        try:
            contract.constructor(ctx, *args)
        except TypeError as exc:
            raise ContractRevert(f"constructor argument mismatch for {name}: {exc}") from exc
        return CreateResult(contract=contract, code_size=contract_class.code_size())

    def call(self, contract: Contract, method: str, args: List[Any], ctx: CallContext) -> Any:
        """Dispatch ``method(*args)`` on a deployed contract instance."""
        abi = contract.abi()
        if method not in abi:
            raise ContractRevert(f"unknown method: {method}")
        entry = abi[method]
        if ctx.value > 0 and not entry["payable"]:
            raise ContractRevert(f"method {method} is not payable")
        bound = getattr(contract, method)
        # Charge a small per-call compute cost proportional to argument size,
        # standing in for the EVM's per-opcode execution gas.
        ctx.meter.consume(gas.COMPUTE_STEP * (8 + len(str(args))), reason=f"compute {method}")
        if entry["view"]:
            return self._call_view(bound, args, ctx)
        try:
            return bound(ctx, *args)
        except TypeError as exc:
            raise AbiError(f"argument mismatch calling {method}: {exc}") from exc

    def _call_view(self, bound: Callable, args: List[Any], ctx: CallContext) -> Any:
        """Run a view method and verify it made no storage writes."""
        before = dict(ctx.storage)
        try:
            result = bound(ctx, *args)
        except TypeError as exc:
            raise AbiError(f"argument mismatch calling view method: {exc}") from exc
        if ctx.storage != before:
            raise ContractRevert("view method attempted to modify storage")
        return result
