"""``--compare A.json B.json``: is B worse than A, by the benchmark's bounds?

Each file is the list of run results ``run.py --out`` appends to, so one
side can hold one run or ten. Per (workload, end-to-end metric) the two
medians are compared against the metric's bound from ``BENCHMARK.json``:

``ok``          B's median is not worse than A's by more than the bound;
``regressed``   it is;
``unresolved``  a side's own run-to-run spread (IQR / median, needs at
                least four runs) is wider than the bound, so the
                difference cannot be told from noise (``setup_s`` is
                exempt, see :data:`SPREAD_EXEMPT`).
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Optional, Tuple

from layerbench.stats import iqr_over_median

#: Set-up time varies with the seed (the key generation's prime search), so
#: across a set of seeds its spread says nothing about noise; like the
#: driver, only compare its medians.
SPREAD_EXEMPT = ("setup_s",)


def load_runs(path: str) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values, over every non-smoke run in the file."""
    with open(path, "r", encoding="utf-8") as handle:
        runs = json.load(handle)
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        if run.get("smoke"):
            continue  # a smoke run is never valid for a claim
        for metric, value in run["end_to_end"].items():
            values.setdefault((run["workload"], metric), []).append(value)
    return values


def spread(values: List[float]) -> Optional[float]:
    return iqr_over_median(values) if len(values) >= 4 else None


def _shown(value: Optional[float]) -> str:
    return "   n/a" if value is None else f"{value:6.1%}"


def verdict(a: List[float], b: List[float], bound: float, better: str,
            judge_spread: bool = True) -> Tuple[str, float]:
    """(status, relative change of B's median over A's; positive = worse)."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    change = (median_b - median_a) / median_a if median_a else float("inf")
    if better == "higher":
        change = -change
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if judge_spread and any(s > bound for s in spreads):
        return "unresolved", change
    return ("regressed" if change > bound else "ok"), change


def compare(path_a: str, path_b: str, spec: Dict) -> Tuple[List[str], bool]:
    """Report lines, and whether every pair came out ``ok``."""
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    lines = [f"{'workload':18s} {'metric':24s} {'A':>12s} {'B':>12s} {'worse by':>9s} "
             f"{'bound':>6s} {'spread A/B':>13s}  status"]
    all_ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in runs_a or key not in runs_b:
                continue
            a, b = runs_a[key], runs_b[key]
            status, change = verdict(a, b, metric["bound"], metric["better"],
                                     judge_spread=metric["name"] not in SPREAD_EXEMPT)
            all_ok = all_ok and status == "ok"

            lines.append(
                f"{workload:18s} {metric['name']:24s} {statistics.median(a):12.4f} "
                f"{statistics.median(b):12.4f} {change:+9.1%} {metric['bound']:6.0%} "
                f"{_shown(spread(a))}/{_shown(spread(b))}  {status}")
    return lines, all_ok
