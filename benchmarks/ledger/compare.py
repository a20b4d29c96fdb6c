"""``compare PARENT CHANGE``: judge a change's runs against its parent's.

Both files are set files written by ``run --json``.  Runs of one workload
pair up in file order, so measure them alternating (parent, change,
parent, ...) with the same seed per pair.  For every end-to-end metric
and workload the verdict is one of:

``better``
    the change wins at least 9 of 10 pairs (ties count for neither) and
    the medians differ by more than the parent's IQR, in the better
    direction;
``unresolved``
    otherwise, when either side's IQR exceeds the metric's bound (as a
    share of its median), unless every change run beats every parent run;
``worse``
    the change's median is worse than the parent's by more than the bound;
``unchanged``
    none of the above.

A gain does not count when more operations failed than at the parent.
Exit status: 1 if any metric is ``worse`` or failures rose, else 0.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Sequence

from . import spec, stats

#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    """The verdict for one metric on one workload (see module docstring)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("compare needs the same, non-zero number of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_stats, c_stats = stats.summary(parent), stats.summary(change)
    gap = sign * (c_stats["median"] - p_stats["median"])
    if wins >= WIN_SHARE * len(parent) and gap > p_stats["iqr"]:
        return "better"
    spread = max(stats.relative_spread(parent), stats.relative_spread(change))
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    if -gap > bound * abs(p_stats["median"]):
        return "worse"
    return "unchanged"


def _load(path: Path) -> Dict[str, List[Dict[str, Any]]]:
    data = json.loads(path.read_text())
    by_workload: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for run in data["runs"]:
        if not run["trace"]:
            by_workload[run["workload"]].append(run)
    return by_workload


def compare_sets(parent: Dict[str, List[dict]], change: Dict[str, List[dict]]) -> List[dict]:
    """One row per (workload, end-to-end metric) present on both sides."""
    rows = []
    for workload in spec.WORKLOADS:
        if workload not in parent or workload not in change:
            continue
        p_runs, c_runs = parent[workload], change[workload]
        failures_rose = sum(r["failed"] for r in c_runs) > sum(r["failed"] for r in p_runs)
        for metric in spec.END_TO_END:
            p = [r["metrics"][metric.name]["value"] for r in p_runs]
            c = [r["metrics"][metric.name]["value"] for r in c_runs]
            result = verdict(p, c, metric.better, metric.bound)
            if result == "better" and failures_rose:
                result = "unchanged"
            rows.append({
                "workload": workload,
                "metric": metric.name,
                "unit": metric.unit,
                "bound": metric.bound,
                "parent": stats.summary(p),
                "change": stats.summary(c),
                "verdict": result,
                "failures_rose": failures_rose,
            })
    return rows


def cmd_compare(args: argparse.Namespace) -> int:
    rows = compare_sets(_load(args.parent), _load(args.change))
    if not rows:
        print("compare: no workload measured on both sides")
        return 1
    print(f"{'workload':<18} {'metric':<13} {'parent median [IQR]':>26} "
          f"{'change median [IQR]':>26} {'delta':>8} {'bound':>6}  verdict")
    for row in rows:
        p, c = row["parent"], row["change"]
        delta = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
        print(
            f"{row['workload']:<18} {row['metric']:<13} "
            f"{p['median']:>15.6g} [{p['iqr']:>8.3g}] "
            f"{c['median']:>15.6g} [{c['iqr']:>8.3g}] "
            f"{delta:>+8.2%} {row['bound']:>6.0%}  {row['verdict']}"
            + ("  (failures rose)" if row["failures_rose"] else "")
        )
    bad = any(row["verdict"] == "worse" or row["failures_rose"] for row in rows)
    return 1 if bad else 0
