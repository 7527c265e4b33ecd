"""``compare``: judge result set B against result set A, metric by metric.

A result set is a JSON-lines file as ``run.py --out`` appends it: one
untraced run per line.  Take the two sets in interleaved order (A, B, B,
A, ...), at least three runs per workload each, so drift of the machine
lands on both sides.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Sequence, Tuple

from spinebench import settings, stats

Runs = Dict[Tuple[str, str], List[float]]  # (workload, metric) -> one value per run


def load(path: str) -> Runs:
    runs: Runs = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue  # per-layer rows carry no bound
            for name, metric in record["metrics"].items():
                runs.setdefault((record["workload"], name), []).append(metric["value"])
    return runs


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Tuple[str, float]:
    """``(verdict, worse_by)`` for one workload x metric.

    ``worse_by`` is how far B's median sits on the wrong side of A's, as
    a share of A's.  Past the bound it is a ``regression``.  Otherwise,
    if either side's own runs spread wider than the bound, the medians
    cannot show the metric held — ``unresolved`` — unless every run of B
    reads better than every run of A.
    """
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = stats.quartiles(a)[1], stats.quartiles(b)[1]
    worse_by = sign * (median_b - median_a) / abs(median_a) if median_a else math.inf
    if worse_by > bound:
        return "regression", worse_by
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if max(stats.spread(a), stats.spread(b)) > bound and not all_better:
        return "unresolved", worse_by
    return "ok", worse_by


def compare(path_a: str, path_b: str, out=print) -> int:
    """Print one row per workload x end-to-end metric.

    Returns 1 if any row is a ``regression``, 2 if a set is too small to
    judge, else 0 (``unresolved`` rows do not fail the comparison).
    """
    runs_a, runs_b = load(path_a), load(path_b)
    regressions = short = 0
    out(
        f"{'workload':<13}{'metric':<15}{'unit':<6}{'A median [q1, q3]':>32}"
        f"{'B median [q1, q3]':>32}{'worse by':>10}{'bound':>7}  verdict"
    )
    for workload, _why in settings.WORKLOADS:
        for name, unit, better, bound in settings.END_TO_END:
            a, b = runs_a.get((workload, name), []), runs_b.get((workload, name), [])
            if not a and not b:
                continue
            if len(a) < 3 or len(b) < 3:
                out(f"{workload:<13}{name:<15}{unit:<6}  needs 3 runs a side, has {len(a)} and {len(b)}")
                short += 1
                continue
            result, worse_by = verdict(a, b, better, bound)
            regressions += result == "regression"
            cells = [
                f"{median:.4g} [{q1:.4g}, {q3:.4g}]"
                for q1, median, q3 in (stats.quartiles(a), stats.quartiles(b))
            ]
            out(
                f"{workload:<13}{name:<15}{unit:<6}{cells[0]:>32}{cells[1]:>32}"
                f"{worse_by:>+10.1%}{bound:>7.0%}  {result}"
            )
    return 1 if regressions else 2 if short else 0
