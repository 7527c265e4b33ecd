"""Text renderers that print results in the paper's table/figure shapes."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.experiments.harness import KnownBestResult, MethodResult, TrainingCurve


def render_table1(results: Sequence[MethodResult], workloads: Sequence[str]) -> str:
    """Table I: WRL/GMRL (train & test) and workload runtime per method."""
    by_method: Dict[str, Dict[str, MethodResult]] = {}
    for result in results:
        by_method.setdefault(result.method, {})[result.workload] = result

    def cell(result: Optional[MethodResult], getter) -> str:
        if result is None:
            return "   -  "
        if result.timed_out:
            return "  TLE "
        return f"{getter(result):6.2f}"

    header_groups = [
        ("WRL/train", lambda r: r.train.wrl),
        ("GMRL/train", lambda r: r.train.gmrl),
        ("WRL/test", lambda r: r.test.wrl),
        ("GMRL/test", lambda r: r.test.gmrl),
        ("Runtime(s)", lambda r: r.test.total_runtime_s + r.train.total_runtime_s),
    ]
    lines = []
    title = "Method     " + "".join(
        f"| {name:^{7 * len(workloads)}} " for name, _ in header_groups
    )
    sub = "           " + "".join(
        "| " + " ".join(f"{w[:6]:>6}" for w in workloads) + " " for _ in header_groups
    )
    lines.append(title)
    lines.append(sub)
    lines.append("-" * len(sub))
    for method, per_workload in by_method.items():
        row = f"{method:<11}"
        for _, getter in header_groups:
            row += "| " + " ".join(cell(per_workload.get(w), getter) for w in workloads) + " "
        lines.append(row)
    return "\n".join(lines)


def render_relative_speedup(results: Sequence[MethodResult], baseline_method: str = "FOSS") -> str:
    """Fig. 4: relative total-latency speedup of FOSS over each method."""
    by_key = {(r.method, r.workload): r for r in results}
    workloads = sorted({r.workload for r in results})
    methods = [m for m in dict.fromkeys(r.method for r in results) if m != baseline_method]
    lines = [f"Relative speedup of {baseline_method} (total latency; >1 means {baseline_method} faster)"]
    lines.append(f"{'method':<12}" + "".join(f"{w + '/' + split:>14}" for w in workloads for split in ("train", "test")))
    for method in methods:
        row = f"{method:<12}"
        for workload in workloads:
            foss = by_key.get((baseline_method, workload))
            other = by_key.get((method, workload))
            for split in ("train", "test"):
                if foss is None or other is None or other.timed_out:
                    row += f"{'TLE' if other and other.timed_out else '-':>14}"
                    continue
                foss_eval = getattr(foss, split)
                other_eval = getattr(other, split)
                speedup = other_eval.total_runtime_s / max(foss_eval.total_runtime_s, 1e-9)
                row += f"{speedup:>13.2f}x"
        lines.append(row)
    return "\n".join(lines)


def render_training_curves(curves: Sequence[TrainingCurve], value: str = "speedup") -> str:
    """Fig. 5 / Fig. 9: metric trajectories as aligned text series."""
    lines = []
    for curve in curves:
        values = curve.speedups if value == "speedup" else curve.gmrls
        series = " ".join(
            f"({t:.0f}s,{v:.2f})" for t, v in zip(curve.times_s, values)
        )
        lines.append(f"{curve.method:<14} {curve.workload:<7} {value}: {series}")
    return "\n".join(lines)


def render_box_stats(label_to_times: Dict[str, np.ndarray]) -> str:
    """Fig. 6: optimization-time box statistics (p25/p50/p75) per optimizer."""
    lines = [f"{'method':<12}{'p25':>10}{'p50':>10}{'p75':>10}{'mean':>10}  (ms)"]
    for label, times in label_to_times.items():
        p25, p50, p75 = np.percentile(times, [25, 50, 75])
        lines.append(f"{label:<12}{p25:>10.2f}{p50:>10.2f}{p75:>10.2f}{times.mean():>10.2f}")
    return "\n".join(lines)


def render_known_best(results: Sequence[KnownBestResult]) -> str:
    """Fig. 8: ranked savings + counts of queries saving >=25% / >=75%."""
    lines = [f"{'method':<12}{'>=25% saved':>12}{'>=75% saved':>12}{'best saving':>13}"]
    for result in results:
        lines.append(
            f"{result.method:<12}"
            f"{result.queries_saving_at_least(0.25):>12}"
            f"{result.queries_saving_at_least(0.75):>12}"
            f"{result.savings_ratios[0] if len(result.savings_ratios) else 0.0:>12.2%}"
        )
    return "\n".join(lines)


def render_steps_distribution(distribution: Dict[int, Dict[int, int]]) -> str:
    """Fig. 7: distribution of known-best-plan step counts per maxsteps."""
    all_steps = sorted({s for counts in distribution.values() for s in counts})
    lines = ["maxsteps " + "".join(f"{f'step{s}':>8}" for s in all_steps)]
    for max_steps in sorted(distribution):
        counts = distribution[max_steps]
        total = sum(counts.values()) or 1
        row = f"{max_steps:>8} " + "".join(
            f"{counts.get(s, 0) / total:>7.0%} " for s in all_steps
        )
        lines.append(row)
    return "\n".join(lines)


def render_ablation_table(rows: Sequence[Dict[str, object]]) -> str:
    """Table II: training time, optimization time, GMRL per configuration."""
    lines = [f"{'experiment':<16}{'train(s)':>10}{'opt(ms)':>10}{'GMRL':>8}"]
    for row in rows:
        lines.append(
            f"{row['experiment']:<16}"
            f"{row['training_time_s']:>10.1f}"
            f"{row['optimization_ms']:>10.2f}"
            f"{row['gmrl']:>8.3f}"
        )
    return "\n".join(lines)
