"""Compare a pytest-benchmark JSON run against the committed baseline.

The CI ``perf`` job runs the gated benchmarks with
``--benchmark-json bench-results.json`` and then::

    python benchmarks/compare.py bench-results.json benchmarks/baseline.json

Each gated benchmark's median time is normalized by the ``calibration``
benchmark's median from the same run (a fixed pure-Python workload), which
cancels out raw machine speed; the normalized cost is compared to the
baseline's normalized cost, and any regression beyond the threshold (25%
by default) fails the process with exit code 1.

The run is always written to a scratch name: the repo root's committed
``BENCH_PR4.json`` is the before/after ingest *experiment record*, not a
pytest-benchmark output (CI uploads its ``bench-results.json`` under the
``BENCH_PR4.json`` artifact name).  Locally::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_hotpaths.py \
        -q --benchmark-only --benchmark-json bench-results.json
    python benchmarks/compare.py bench-results.json benchmarks/baseline.json

Refresh the baseline after an intentional perf change by adding
``--update``, which rewrites the baseline from the run (review the diff
before committing; see docs/performance.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

CALIBRATION = "test_bench_calibration"

#: Benchmarks the CI gate enforces (short pytest names).
DEFAULT_GATED = (
    "test_bench_tx_ingest",
    "test_bench_mempool_select",
    "test_bench_rpc_reads",
    "test_bench_signature_verify",
    "test_bench_batch_ingest",
)


def load_medians(path: Path) -> dict:
    """Map short benchmark name -> median seconds from a pytest-benchmark JSON."""
    payload = json.loads(path.read_text())
    medians = {}
    for bench in payload.get("benchmarks", []):
        medians[bench["name"]] = float(bench["stats"]["median"])
    return medians


def normalize(medians: dict) -> dict:
    """Divide every median by the run's calibration median."""
    calibration = medians.get(CALIBRATION)
    if not calibration:
        raise SystemExit(
            f"error: the run is missing the {CALIBRATION!r} benchmark; "
            "cannot normalize for machine speed")
    return {name: median / calibration for name, median in medians.items()
            if name != CALIBRATION}


def write_baseline(run_path: Path, baseline_path: Path, gated) -> None:
    medians = load_medians(run_path)
    normalized = normalize(medians)
    missing = [name for name in gated if name not in normalized]
    if missing:
        raise SystemExit(f"error: run is missing gated benchmarks: {missing}")
    baseline = {
        "schema": "oflw3-perf-baseline/v1",
        "calibration_benchmark": CALIBRATION,
        "gated": list(gated),
        "normalized_cost": {name: round(value, 6)
                            for name, value in sorted(normalized.items())},
        "raw_median_seconds": {name: round(value, 9)
                               for name, value in sorted(medians.items())},
    }
    baseline_path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(f"baseline written to {baseline_path}")


def compare(run_path: Path, baseline_path: Path, threshold: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    gated = baseline["gated"]
    run_normalized = normalize(load_medians(run_path))
    base_normalized = baseline["normalized_cost"]

    failures = []
    rows = []
    for name in gated:
        if name not in run_normalized:
            failures.append(f"{name}: missing from the benchmark run")
            continue
        if name not in base_normalized:
            failures.append(f"{name}: missing from the baseline")
            continue
        current = run_normalized[name]
        recorded = base_normalized[name]
        ratio = current / recorded
        status = "OK"
        if ratio > 1.0 + threshold:
            status = "REGRESSION"
            failures.append(
                f"{name}: normalized cost {current:.4f} vs baseline "
                f"{recorded:.4f} ({100 * (ratio - 1):+.1f}%, "
                f"threshold +{100 * threshold:.0f}%)")
        elif ratio < 1.0 - threshold:
            status = "improved"
        rows.append((name, recorded, current, ratio, status))

    width = max(len(name) for name, *_ in rows) if rows else 20
    print(f"{'benchmark':<{width}}  {'baseline':>10}  {'current':>10}  "
          f"{'ratio':>7}  status")
    for name, recorded, current, ratio, status in rows:
        print(f"{name:<{width}}  {recorded:>10.4f}  {current:>10.4f}  "
              f"{ratio:>7.3f}  {status}")

    if failures:
        print(f"\nFAIL: {len(failures)} gated benchmark(s) regressed "
              f"beyond {100 * threshold:.0f}%:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nall {len(rows)} gated benchmarks within "
          f"{100 * threshold:.0f}% of baseline")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="gate pytest-benchmark results against a committed baseline")
    parser.add_argument("run", type=Path,
                        help="pytest-benchmark JSON (from --benchmark-json)")
    parser.add_argument("baseline", type=Path, help="committed baseline JSON")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional regression (default: 0.25)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run instead of "
                             "comparing")
    args = parser.parse_args(argv)
    if args.update:
        gated = DEFAULT_GATED
        if args.baseline.exists():
            gated = json.loads(args.baseline.read_text()).get("gated", DEFAULT_GATED)
        write_baseline(args.run, args.baseline, gated)
        return 0
    return compare(args.run, args.baseline, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
