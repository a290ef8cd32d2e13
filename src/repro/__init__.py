"""OFL-W3 reproduction: a one-shot federated learning system on Web 3.0.

The :mod:`repro` package reproduces the system described in *"OFL-W3: A
One-shot Federated Learning System on Web 3.0"* (PVLDB 2024).  It contains
every substrate the demo system depends on, implemented from scratch in pure
Python/NumPy:

``repro.chain``
    An Ethereum-like blockchain with accounts, transactions, gas accounting,
    blocks, a proof-of-authority consensus clock and an Etherscan-like
    explorer.
``repro.contracts``
    A gas-metered smart-contract execution framework and the contracts the
    paper deploys (CID storage, FL-task escrow).
``repro.ipfs``
    A content-addressed storage network (chunking, Merkle DAG, CIDs,
    multi-node swarm, pinning, gateway).
``repro.ml``
    A NumPy neural-network substrate (MLPs, optimizers, training loop).
``repro.data``
    A synthetic MNIST-like dataset plus PFNM's Dirichlet partitioner.
``repro.fl``
    The federated-learning client and the one-shot aggregators (PFNM
    neuron matching, ensembles, naive averaging).
``repro.incentives``
    Leave-one-out and Shapley contribution measures and payment allocation.
``repro.web``
    A Flask-like backend, a MetaMask-like wallet simulator, and DApp
    facades for the buyer and owner interfaces.
``repro.rpc``
    A versioned JSON-RPC 2.0 gateway (the one metered door to the stack)
    and the typed ``MarketplaceClient`` SDK.
``repro.storage``
    The durable, pluggable storage engine: write-ahead log, periodic
    chain-state snapshots with replay-based crash recovery, blob spaces for
    IPFS payloads, and a shared LRU read cache.
``repro.simnet``
    A discrete-event scenario simulator: concurrent tasks, adversarial
    owner populations, lossy networks, node crash/recovery.
``repro.loadgen``
    The background load ``repro.simnet`` scenarios attach to their stack:
    Zipf-skewed, bursty request mixes at the gateway on the simulated clock.
``repro.cluster``
    Multi-node chain replication: gossip transaction/block dissemination,
    round-robin leader rotation with failover, longest-chain fork choice
    with reorgs, and WAL-based replica recovery.
``repro.system``
    The OFL-W3 workflow (Steps 1-7 of the paper), roles, timing model and
    the experiment orchestrator.
"""

from repro.version import __version__

__all__ = ["__version__"]
