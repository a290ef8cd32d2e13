"""Saving and loading experiment artifacts.

Experiment reports are plain dataclasses full of NumPy-free scalars once
rendered through ``to_dict``; this module writes them to JSON files so that
benchmark runs, CLI invocations and notebooks can persist and reload results
(e.g. to diff two configurations without re-running the marketplace).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Union

from repro.system.config import OFLW3Config
from repro.system.orchestrator import MarketplaceReport

PathLike = Union[str, Path]


def report_to_dict(report: MarketplaceReport) -> Dict[str, Any]:
    """Flatten a :class:`MarketplaceReport` into a JSON-safe dictionary.

    The full workflow transcript is omitted (it contains live objects); the
    persisted artifact holds everything needed to re-render the paper's
    tables and figures.
    """
    return {
        "schema": "oflw3-marketplace-report/v1",
        "config": asdict(report.config),
        "owner_addresses": list(report.owner_addresses),
        "local_accuracies_by_owner": dict(report.local_accuracies_by_owner),
        "aggregate_accuracy": report.aggregate_accuracy,
        "aggregate_algorithm": report.aggregate_algorithm,
        "loo_drop_accuracies": dict(report.loo_drop_accuracies),
        "contributions": dict(report.contributions),
        "payments_wei": {k: int(v) for k, v in report.payments_wei.items()},
        "gas": report.gas_report.to_dict(),
        "owner_time": report.owner_time_breakdown().to_dict(),
        "buyer_time": report.buyer_breakdown.to_dict(),
        "model_payload_bytes": report.model_payload_bytes,
        "model_payload_bytes_by_owner": {
            k: int(v) for k, v in report.model_payload_bytes_by_owner.items()
        },
        "total_model_payload_bytes": report.total_model_payload_bytes,
        "ipfs_bytes_transferred": report.ipfs_bytes_transferred,
        "task_address": report.workflow_result.task_address,
    }


def save_json(payload: Dict[str, Any], path: PathLike) -> Path:
    """Write any report payload to ``path`` as *canonical* pretty JSON.

    Keys are sorted at every nesting level, so two runs that produce equal
    payloads produce byte-identical files -- saved reports diff cleanly no
    matter what insertion order the producing dictionaries had.  Every
    ``--save`` flag in the CLI funnels through here.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return target


def save_report(report: MarketplaceReport, path: PathLike) -> Path:
    """Write a marketplace report to ``path`` as pretty-printed JSON."""
    return save_json(report_to_dict(report), path)


def load_report(path: PathLike) -> Dict[str, Any]:
    """Load a previously saved report as a plain dictionary.

    The loader validates the schema marker and reconstructs the
    :class:`OFLW3Config` under the ``"config"`` key so that downstream code
    can treat the artifact like a fresh run's summary.
    """
    payload = json.loads(Path(path).read_text())
    schema = payload.get("schema")
    if schema != "oflw3-marketplace-report/v1":
        raise ValueError(f"unrecognized report schema: {schema!r}")
    config_fields = payload.get("config", {})
    try:
        payload["config"] = OFLW3Config(**config_fields)
    except TypeError:
        # Forward compatibility: keep the raw dict if fields do not line up.
        payload["config"] = config_fields
    return payload


def summarize_report(payload: Dict[str, Any]) -> str:
    """One-paragraph human summary of a saved report (used by the CLI)."""
    locals_by_owner = payload["local_accuracies_by_owner"]
    local_values = list(locals_by_owner.values())
    lines = [
        f"task contract:        {payload.get('task_address')}",
        f"aggregation:          {payload['aggregate_algorithm']}",
        f"aggregate accuracy:   {payload['aggregate_accuracy']:.4f}",
        f"local accuracy range: {min(local_values):.4f} - {max(local_values):.4f}"
        f" ({len(local_values)} owners)",
        f"total paid:           {sum(payload['payments_wei'].values()) / 1e18:.8f} ETH",
        f"model payload:        {payload['model_payload_bytes'] / 1024:.1f} KB",
    ]
    total_payload = payload.get("total_model_payload_bytes")
    if total_payload:
        per_owner = payload.get("model_payload_bytes_by_owner", {})
        lines.append(
            f"payload total:        {total_payload / 1024:.1f} KB "
            f"across {len(per_owner)} uploads"
        )
    return "\n".join(lines)
