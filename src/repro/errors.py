"""Exception hierarchy shared across all :mod:`repro` subsystems.

Every subsystem raises exceptions derived from :class:`ReproError` so that a
caller can distinguish "the reproduction library rejected this operation"
from programming errors (``TypeError``, ``KeyError``, ...).  Sub-hierarchies
mirror the subsystem layout: chain, contracts, IPFS, ML, FL, incentives, web
and system orchestration.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


# ---------------------------------------------------------------------------
# Blockchain substrate
# ---------------------------------------------------------------------------


class ChainError(ReproError):
    """Base class for blockchain errors."""


class InvalidAddressError(ChainError):
    """An address string is malformed (wrong length, bad hex, bad checksum)."""


class InvalidSignatureError(ChainError):
    """A transaction signature does not verify against the sender address."""


class InvalidTransactionError(ChainError):
    """A transaction is structurally invalid (bad nonce, negative value...)."""


class InsufficientFundsError(ChainError):
    """The sender balance cannot cover value + gas_limit * gas_price."""


class NonceError(InvalidTransactionError):
    """The transaction nonce does not match the sender's account nonce."""


class OutOfGasError(ChainError):
    """Execution consumed more gas than the transaction's gas limit."""


class BlockValidationError(ChainError):
    """A block fails structural or parent-linkage validation."""


class UnknownBlockError(ChainError):
    """A block hash or number does not exist on the canonical chain."""


class UnknownTransactionError(ChainError):
    """A transaction hash is not known to the chain or mempool."""


class MempoolError(ChainError):
    """The mempool rejected a transaction (duplicate, underpriced, full)."""


# ---------------------------------------------------------------------------
# Smart contracts
# ---------------------------------------------------------------------------


class ContractError(ReproError):
    """Base class for smart-contract errors."""


class ContractRevert(ContractError):
    """The contract explicitly reverted; carries the revert reason.

    Mirrors Solidity's ``require(cond, "reason")`` /  ``revert("reason")``.
    State changes made by the reverted call are rolled back and the gas spent
    up to the revert point is still charged.
    """

    def __init__(self, reason: str = "") -> None:
        super().__init__(reason or "execution reverted")
        self.reason = reason


class ContractNotFoundError(ContractError):
    """No contract is deployed at the target address."""


class AbiError(ContractError):
    """A call does not match the contract ABI (unknown method, bad args)."""


# ---------------------------------------------------------------------------
# IPFS substrate
# ---------------------------------------------------------------------------


class IpfsError(ReproError):
    """Base class for IPFS errors."""


class InvalidCidError(IpfsError):
    """A CID string or digest is malformed."""


class BlockNotFoundError(IpfsError):
    """A block (by CID) is not present locally nor retrievable from peers."""


# ---------------------------------------------------------------------------
# ML substrate
# ---------------------------------------------------------------------------


class MLError(ReproError):
    """Base class for neural-network substrate errors."""


class ShapeError(MLError):
    """An array has an incompatible shape for the requested operation."""


class SerializationError(MLError):
    """Model (de)serialization failed (corrupt payload, version mismatch)."""


# ---------------------------------------------------------------------------
# Federated learning
# ---------------------------------------------------------------------------


class FLError(ReproError):
    """Base class for federated-learning errors."""


class AggregationError(FLError):
    """An aggregator received incompatible or empty model updates."""


class PartitionError(FLError):
    """A dataset partitioning request is infeasible (too many clients...)."""


# ---------------------------------------------------------------------------
# Incentives
# ---------------------------------------------------------------------------


class IncentiveError(ReproError):
    """Base class for contribution-measurement / payment errors."""


class BudgetError(IncentiveError):
    """A payment allocation request exceeds or misuses the token budget."""


# ---------------------------------------------------------------------------
# Web / DApp layer
# ---------------------------------------------------------------------------


class WebError(ReproError):
    """Base class for the web/DApp simulation layer."""


class RouteNotFoundError(WebError):
    """No route matches the requested method + path."""


# ---------------------------------------------------------------------------
# JSON-RPC gateway (repro.rpc)
# ---------------------------------------------------------------------------


class RpcError(ReproError):
    """A JSON-RPC gateway returned an error response.

    Raised by :class:`repro.rpc.client.MarketplaceClient` when the gateway
    answers with an error envelope that does not rehydrate into a more
    specific :class:`ReproError` subclass.  Carries the JSON-RPC error
    ``code`` and the optional structured ``data`` member.
    """

    def __init__(self, message: str, code: int = -32000, data=None) -> None:
        super().__init__(message)
        self.code = code
        self.data = data


# ---------------------------------------------------------------------------
# System orchestration
# ---------------------------------------------------------------------------


class WorkflowError(ReproError):
    """A workflow step was invoked out of order or with missing inputs."""


class ConfigError(ReproError):
    """An experiment configuration is invalid."""


# ---------------------------------------------------------------------------
# Discrete-event simulation (repro.simnet)
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """A scenario simulation could not be built or executed."""


class SchedulerError(SimulationError):
    """An event-scheduler misuse (negative delay, runaway process, deadlock)."""


# ---------------------------------------------------------------------------
# Durable storage (repro.storage)
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """A storage backend, WAL or snapshot operation failed."""


class StorageCorruptionError(StorageError):
    """Persisted data failed an integrity check (checksum, hash linkage)."""


# ---------------------------------------------------------------------------
# Multi-node replication (repro.cluster)
# ---------------------------------------------------------------------------


class ClusterError(ReproError):
    """A chain-replication cluster operation failed (bad config, dead
    replica, impossible reorg)."""


# ---------------------------------------------------------------------------
# Observability (repro.obs)
# ---------------------------------------------------------------------------


class ObservabilityError(ReproError):
    """Misuse of the observability layer (metric name clash, bad label set,
    malformed metric name)."""


# ---------------------------------------------------------------------------
# Analytics replica (repro.analytics)
# ---------------------------------------------------------------------------


class AnalyticsError(ReproError):
    """An analytics-replica operation failed (no WAL to feed from, broken
    block linkage during change propagation, unknown rollup)."""


# ---------------------------------------------------------------------------
# Network transport (repro.net)
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """A network-transport operation failed (bad server config, malformed
    HTTP or WebSocket traffic, a client driving a closed connection)."""


class ProtocolViolationError(NetworkError):
    """The peer broke the HTTP/1.1 or RFC 6455 framing rules (unmasked
    client frame, oversized payload, truncated handshake)."""


class PayloadTooLargeError(ProtocolViolationError):
    """An HTTP request head or body exceeds the server's byte cap (the
    violation answered ``413`` rather than ``400``)."""


class HttpVersionNotSupportedError(ProtocolViolationError):
    """A well-framed request line names a version other than HTTP/1.0 or
    HTTP/1.1 (the violation answered ``505`` rather than ``400``)."""
