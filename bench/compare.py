#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python bench/compare.py A.json B.json    B against A

A set is what ``python bench/run.py --runs N --out A.json`` writes.  Bounds
come from ``BENCHMARK.json``.  One row per (workload, end-to-end metric):
both medians, the ratio B/A with its base, each side's own spread (distance
between the quartiles of its runs as a share of their median), and

  ok          B's median is no worse than A's by more than the bound
  regressed   it is worse by more than the bound
  unresolved  a side's own runs spread wider than the bound and the two
              sides' ranges overlap, so the runs cannot tell

Exit status is non-zero on any ``regressed`` row or when B failed a larger
share of its operations than A.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bounds() -> List[Dict[str, Any]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)["end_to_end"]


def load_set(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def values_of(document: Dict[str, Any], workload: str, metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in document["runs"].get(workload, [])]


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _middle, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def failed_share(document: Dict[str, Any]) -> float:
    runs = [run for runs in document["runs"].values() for run in runs]
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def judge(metric: Dict[str, Any], base: Sequence[float], new: Sequence[float]) -> Tuple[str, float]:
    """(verdict, share by which the new median is worse than the base's)."""
    base_median, new_median = statistics.median(base), statistics.median(new)
    worse = (new_median - base_median) / base_median
    if metric["better"] == "higher":
        worse = -worse
    overlap = min(base) <= max(new) and min(new) <= max(base)
    if max(spread(base), spread(new)) > metric["bound"] and overlap:
        return "unresolved", worse
    return ("regressed" if worse > metric["bound"] else "ok"), worse


def compare(base_path: str, new_path: str) -> int:
    base, new = load_set(base_path), load_set(new_path)
    print(f"base A = {base_path} ({base['machine'].get('commit', '?')[:19]}), "
          f"B = {new_path} ({new['machine'].get('commit', '?')[:19]})")
    print(f"{'workload':12s} {'metric':12s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'worse by':>9s} {'bound':>6s} {'spread A':>9s} {'spread B':>9s}  verdict")
    regressed = False
    bounds = load_bounds()
    for workload in base["runs"]:
        for metric in bounds:
            ours = values_of(base, workload, metric["name"])
            theirs = values_of(new, workload, metric["name"])
            if not ours or not theirs:
                print(f"{workload:12s} {metric['name']:12s} missing on one side")
                regressed = True
                continue
            verdict, worse = judge(metric, ours, theirs)
            regressed = regressed or verdict == "regressed"
            base_median = statistics.median(ours)
            print(f"{workload:12s} {metric['name']:12s} {base_median:12.4f} "
                  f"{statistics.median(theirs):12.4f} "
                  f"{statistics.median(theirs) / base_median:7.3f} {worse:+9.1%} "
                  f"{metric['bound']:6.0%} {spread(ours):9.1%} {spread(theirs):9.1%}  "
                  f"{verdict} (n={len(ours)}/{len(theirs)}, "
                  f"base {base_median:.4g} {metric['unit']})")
    base_failed, new_failed = failed_share(base), failed_share(new)
    print(f"failed_share: A {base_failed:.6f}, B {new_failed:.6f}")
    return 1 if regressed or new_failed > base_failed else 0


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(argv[0], argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
