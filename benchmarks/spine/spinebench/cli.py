"""Command line of the spine benchmark: one workload, one seed, one run."""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from typing import Optional, Sequence

from spinebench import settings


def parse(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="run.py",
        description="Run one spine workload and print its metrics; "
        "or: run.py compare A.jsonl B.jsonl",
    )
    parser.add_argument("--workload", required=True, choices=[w for w, _ in settings.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1, help="orders the requests; nothing else")
    parser.add_argument("--seconds", type=float, default=10.0, help="time to measure for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, untraced; 1: the layer budget")
    parser.add_argument("--trace-out", help="write the spans of a traced run here (JSON)")
    parser.add_argument("--out", help="append this run's full record here (JSON lines)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny doctor and passes: checks parity and the schema, measures nothing")
    return parser.parse_args(argv)


def _sigterm(_signum, _frame) -> None:
    raise SystemExit(143)  # unwinds through Bench.close like any other exit


def main(argv: Sequence[str], started: Optional[float] = None) -> int:
    if argv and argv[0] == "compare":
        from spinebench.compare import compare

        if len(argv) != 3:
            print("usage: run.py compare A.jsonl B.jsonl", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])

    args = parse(argv)
    # imported here so that ``compare`` works on a box without numpy or src/
    from spinebench import rig
    from spinebench.workloads import RUNNERS

    signal.signal(signal.SIGTERM, _sigterm)
    bench = rig.Bench(
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        smoke=args.smoke,
        started=started if started is not None else time.perf_counter(),
    )
    try:
        values = RUNNERS[args.workload](bench)
        values["setup_s"] = bench.setup_s
        values["peak_rss_mb"] = rig.peak_rss_mb()
    finally:
        survivors = bench.close()
    if survivors:
        bench.attempted += 1
        bench.fail(len(survivors), "left behind after teardown: " + ", ".join(survivors))
    if args.trace_out:
        bench.tracer.write(args.trace_out)

    units = settings.units()
    if args.trace:
        # layers a workload never enters read 0
        metrics = {name: float(values.get(name, 0.0)) for name, *_ in settings.PER_LAYER}
    else:
        metrics = {name: float(values[name]) for name, *_ in settings.END_TO_END}
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(
        result,
        workload=args.workload,
        trace=args.trace,
        stamp=rig.stamp(bench),
        plan_digest=values.get("plan_digest"),
        problems=bench.problems,
    )
    print(f"spine {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={bench.attempted} failed={bench.failed} plan_digest={record['plan_digest']}")
    for name, value in metrics.items():
        print(f"  {name:<40}{value:>16.6g} {units[name]}")
    for problem in bench.problems:
        print(f"  FAILED: {problem}")
    print("stamp " + json.dumps(record["stamp"], sort_keys=True))
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0
