"""Sizes and fixed settings of the benchmark.

What the benchmark reports -- workloads, metrics, units, directions, bounds --
is ``BENCHMARK.json`` at the repository root and nowhere else; ``manifest``
reads it.  This module holds what that file has no key for: how much work a
repetition does, how many repetitions a run makes, and the environment every
measured process runs in.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Keep-alive connections of every wire workload (one thread each): the
#: paper's clients are wallets and a DApp backend that wait for their reply.
MAX_CONNECTIONS = 2

#: Funded sender accounts of every transfer workload (the PR 4-10 shape).
SENDERS = 20

#: One quick-preset model update, the payload size of ``wire_ipfs``.
IPFS_PAYLOAD_BYTES = 318_000

#: Calls per batch POST in ``wire_read``.
BATCH_CALLS = 50

#: Block cadence every child server is booted with (a deployment setting).
BLOCK_INTERVAL = "0.05"

#: Process environment of the benchmark and of every child server.  BLAS is
#: pinned to one thread, and glibc malloc is told to keep freed memory
#: (no mmap per large block, no trimming): in this sandbox a fresh page costs
#: 3-10 us of system time, one quick marketplace task touches ~3 GB of them,
#: and unpinned the same task read 2.1-16 s (1.6 s of it user time).
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": "4000000000",
    "PYTHONHASHSEED": "0",
}

#: Repetitions of one run at ``run_seconds``; ``--seconds`` scales the count
#: and nothing measured does, so two builds always get the same number of
#: draws.  The issue's sizes were 1500 transfers, 60 000 reads, 200 payloads +
#: 1600 cats and five tasks a run; a run here does as much or more, because
#: what steadies a metric on a shared machine is how many rounds a run holds
#: and how long a stretch of time they cover (see README.md).
REPS: Dict[str, int] = {
    "ingest": 7, "wire_mixed": 5, "wire_read": 5, "wire_ipfs": 7, "marketplace": 7}

#: Units of work in one repetition, per size class: ``rounds`` equal rounds of
#: ``round_txs`` transfers, of ``reads`` read calls, or of ``round_adds``
#: payloads added and ``round_cats`` fetched.  ``wire_mixed`` needs
#: ``round_txs`` to be a multiple of ``SENDERS``: a round is one nonce of each.
#: ``full`` is what the driver and ``python bench/run.py`` run; ``trace`` is
#: the traced pass; ``smoke`` is tier-1's check.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "ingest": {
        "full": {"rounds": 15, "round_txs": 20},
        "trace": {"rounds": 15, "round_txs": 20},
        "smoke": {"rounds": 5, "round_txs": 30}},
    "wire_mixed": {
        "full": {"rounds": 15, "round_txs": 20},
        "trace": {"rounds": 10, "round_txs": 20},
        "smoke": {"rounds": 3, "round_txs": 20}},
    "wire_read": {
        "full": {"setup_txs": 150, "blocks": 30, "reads": 200, "rounds": 120},
        "trace": {"setup_txs": 100, "blocks": 30, "reads": 200, "rounds": 25},
        "smoke": {"setup_txs": 40, "blocks": 30, "reads": 200, "rounds": 10}},
    "wire_ipfs": {
        "full": {"rounds": 10, "round_adds": 4, "round_cats": 32},
        "trace": {"rounds": 8, "round_adds": 4, "round_cats": 32},
        "smoke": {"rounds": 2, "round_adds": 5, "round_cats": 20}},
    "marketplace": {
        "full": {"overrides": {}}, "trace": {"overrides": {}},
        "smoke": {"overrides": {"num_samples": 400, "local_epochs": 1,
                                "num_owners": 2}}},
}


def manifest() -> Dict[str, Any]:
    """``BENCHMARK.json``: the workloads and every metric with its unit,
    direction and bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def workload_names(document: Dict[str, Any]) -> List[str]:
    return [workload["name"] for workload in document["workloads"]]


def repetitions(workload: str, seconds: float, run_seconds: float) -> int:
    return max(1, round(REPS[workload] * seconds / run_seconds))


def connections() -> int:
    """Client connections: never more than the machine has processors."""
    return max(1, min(MAX_CONNECTIONS, os.cpu_count() or 1))
