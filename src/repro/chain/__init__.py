"""An Ethereum-like blockchain substrate.

This package implements the pieces of Ethereum that OFL-W3's evaluation
depends on: externally-owned accounts with Ed25519 signatures, transactions
with an EVM-compatible gas schedule (intrinsic gas, calldata gas, storage
gas), a world state with snapshot/revert, a mempool, proof-of-authority block
production on a 12-second slot clock (Sepolia's cadence), receipts with event
logs, and an Etherscan-like explorer.

The public entry point for applications is :class:`repro.chain.node.EthereumNode`,
which exposes a JSON-RPC-shaped API (``send_transaction``, ``get_balance``,
``wait_for_receipt``, ``call`` ...) and is what the OFL-W3 backend talks to.
"""

from repro.chain.account import Account, Address
from repro.chain.block import Block, BlockHeader
from repro.chain.chain import Blockchain, ChainConfig
from repro.chain.consensus import ProofOfAuthority
from repro.chain.events import EventLog, LogFilter
from repro.chain.explorer import Explorer
from repro.chain.faucet import Faucet
from repro.chain.gas import GasMeter
from repro.chain.keys import KeyPair, Signature
from repro.chain.mempool import Mempool
from repro.chain.node import EthereumNode
from repro.chain.receipts import TransactionReceipt
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction

__all__ = [
    "Account",
    "Address",
    "Block",
    "BlockHeader",
    "Blockchain",
    "ChainConfig",
    "ProofOfAuthority",
    "EventLog",
    "LogFilter",
    "Explorer",
    "Faucet",
    "GasMeter",
    "KeyPair",
    "Signature",
    "Mempool",
    "EthereumNode",
    "TransactionReceipt",
    "WorldState",
    "Transaction",
]
