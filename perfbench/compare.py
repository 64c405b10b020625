"""Noise-aware verdicts for a change against its parent.

Both sides are directories of untraced run documents (``run-*.json``
written by ``harness.py run``).  For each workload and end-to-end metric
the verdict is, in this order of precedence:

``worse``       the change's median is worse than the parent's by more
                than the metric's bound (share of the parent's median);
                any rise in the failed-cell rate, and any cell whose
                fingerprint differs between the sides, is also ``worse``.
``unresolved``  the parent's IQR exceeds the bound, unless every change
                run beats every parent run.
``better``      the change wins at least 9/10 of the pairs and the
                medians differ by more than the parent's IQR.
``same``        none of the above.

Runs pair up by seed (in run order within a seed); sides without a
common seed pair up in run order.  Ties count for neither side.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

RUN_SCHEMA = "perfbench-run/1"
WIN_SHARE = 0.9


def load_runs(directory: Path) -> List[Dict[str, object]]:
    """The untraced run documents under ``directory``, by file name."""
    runs = []
    for path in sorted(directory.glob("*.json")):
        try:
            with open(path) as handle:
                document = json.load(handle)
        except ValueError:
            continue
        if (isinstance(document, dict) and document.get("schema") == RUN_SCHEMA
                and not document.get("trace")):
            runs.append(document)
    if not runs:
        raise SystemExit(f"compare: no untraced run documents under {directory}")
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _pairs(parent, change) -> List[Tuple[float, float]]:
    """(parent value, change value) pairs, matched by seed."""
    def by_seed(runs):
        seeds: Dict[int, List[float]] = {}
        for seed, value in runs:
            seeds.setdefault(seed, []).append(value)
        return seeds

    left, right = by_seed(parent), by_seed(change)
    common = sorted(set(left) & set(right))
    if not common:
        return list(zip([v for _, v in parent], [v for _, v in change]))
    return [pair for seed in common for pair in zip(left[seed], right[seed])]


def verdict(parent: Sequence[float], change: Sequence[float],
            pairs: Sequence[Tuple[float, float]], bound: float,
            higher_is_better: bool) -> Dict[str, object]:
    """Verdict and statistics for one workload x metric."""
    sign = 1.0 if higher_is_better else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    p_iqr = p_q3 - p_q1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (p_med - c_med) / p_med if p_med else 0.0
    all_beat = min(sign * c for c in change) > max(sign * p for p in parent)
    if worse_by > bound:
        label = "worse"
    elif p_med and p_iqr / abs(p_med) > bound and not all_beat:
        label = "unresolved"
    elif win_share >= WIN_SHARE and sign * (c_med - p_med) > p_iqr:
        label = "better"
    else:
        label = "same"
    return {"parent": (p_q1, p_med, p_q3, len(parent)),
            "change": (c_q1, c_med, c_q3, len(change)),
            "win_share": win_share, "pairs": len(pairs), "verdict": label}


def _fingerprint_mismatches(parent, change) -> List[str]:
    """Cells run on both sides (same workload and seed) whose
    fingerprints differ."""
    left = {(doc["workload"], doc["seed"], cell): fp
            for doc in parent for cell, fp in doc["cells"].items()}
    mismatches = []
    for doc in change:
        for cell, fp in doc["cells"].items():
            key = (doc["workload"], doc["seed"], cell)
            if key in left and left[key] != fp:
                mismatches.append(f"{doc['workload']} seed {doc['seed']} {cell}")
    return mismatches


def compare(parent: Sequence[Dict[str, object]],
            change: Sequence[Dict[str, object]],
            end_to_end: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """One row per workload x metric, plus fail-rate and fingerprint rows."""
    rows = []
    workloads = sorted({doc["workload"] for doc in parent}
                       & {doc["workload"] for doc in change})
    for workload in workloads:
        p_runs = [doc for doc in parent if doc["workload"] == workload]
        c_runs = [doc for doc in change if doc["workload"] == workload]
        for entry in end_to_end:
            name = entry["name"]
            p_values = [(doc["seed"], doc["metrics"][name]) for doc in p_runs]
            c_values = [(doc["seed"], doc["metrics"][name]) for doc in c_runs]
            row = verdict([v for _, v in p_values], [v for _, v in c_values],
                          _pairs(p_values, c_values), entry["bound"],
                          entry["better"] == "higher")
            row.update(workload=workload, metric=name, unit=entry["unit"])
            rows.append(row)
        p_rate = (sum(doc["failed"] for doc in p_runs)
                  / sum(doc["attempted"] for doc in p_runs))
        c_rate = (sum(doc["failed"] for doc in c_runs)
                  / sum(doc["attempted"] for doc in c_runs))
        rows.append({"workload": workload, "metric": "fail_rate",
                     "unit": "fraction",
                     "parent": (p_rate, p_rate, p_rate, len(p_runs)),
                     "change": (c_rate, c_rate, c_rate, len(c_runs)),
                     "win_share": 0.0, "pairs": 0,
                     "verdict": "worse" if c_rate > p_rate else "same"})
        mismatches = _fingerprint_mismatches(p_runs, c_runs)
        rows.append({"workload": workload, "metric": "fingerprints",
                     "unit": "cells", "parent": None, "change": None,
                     "win_share": 0.0, "pairs": 0, "detail": mismatches,
                     "verdict": "worse" if mismatches else "same"})
    return rows


def render(rows: Sequence[Dict[str, object]]) -> str:
    def stats(side) -> str:
        if side is None:
            return "-"
        q1, median, q3, n = side
        return f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={n}"

    lines = []
    header = ("workload", "metric", "parent median [q1, q3]",
              "change median [q1, q3]", "wins", "verdict")
    table = [header]
    for row in rows:
        wins = (f"{row['win_share']:.0%} of {row['pairs']}"
                if row["pairs"] else "-")
        table.append((row["workload"], row["metric"], stats(row["parent"]),
                      stats(row["change"]), wins, row["verdict"]))
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    for line in table:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(line)).rstrip())
    for row in rows:
        for detail in row.get("detail", [])[:20]:
            lines.append(f"fingerprint differs: {detail}")
    return "\n".join(lines)
