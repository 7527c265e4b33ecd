"""The paper's §I motivating example, reproduced on this engine.

The paper's query 1b story: PostgreSQL picks a hash join where a nested
loop was right, and a table order that amplifies the mistake.  FOSS acts as
a *plan doctor*: it first overrides the join method, then swaps the two
tables into a proper order — a 2-step repair.

This demo finds a query in the JOB-like workload where the expert's plan is
far from the best 2-step-repairable plan, enumerates the repairs explicitly
(what the trained planner learns to do directly), and prints the
step-by-step doctoring.

Run:  python examples/plan_doctor_demo.py [--scale 0.05]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.api import FossSession
from repro.core.actions import ActionSpace
from repro.core.icp import IncompletePlan
from repro.optimizer.plans import explain


def best_single_step(db, query, icp, space, timeout_ms):
    """Cheapest plan reachable from ``icp`` in one action."""
    best = (None, None, float("inf"))
    for action_id in np.flatnonzero(space.legality_mask(icp)):
        candidate = space.apply(int(action_id), icp)
        plan = db.plan_with_hints(query, candidate.order, candidate.methods).plan
        latency = db.execute(query, plan, timeout_ms=timeout_ms).latency_ms
        if latency < best[2]:
            best = (candidate, space.decode(int(action_id)), latency)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05)
    args = parser.parse_args()

    print("Opening a FOSS session over the JOB-like workload...")
    session = FossSession.open("job", scale=args.scale, seed=1)
    workload = session.workload
    db = session.backend
    space = ActionSpace(max_tables=workload.max_query_tables)

    # Find the query with the largest 2-step repair.
    print("Scanning for the query with the biggest 2-step repair "
          "(this is what the trained FOSS planner learns to do in one shot)...\n")
    best_case = None
    for wq in workload.train:
        query = wq.query
        if query.num_tables < 4 or query.num_tables > 8:
            continue
        original = db.plan(query).plan
        original_latency = db.execute(query, original).latency_ms
        if original_latency < 1.0:
            continue
        icp0 = IncompletePlan(original.aliases, original.methods)
        timeout = original_latency * 1.5
        icp1, action1, latency1 = best_single_step(db, query, icp0, space, timeout)
        icp2, action2, latency2 = best_single_step(db, query, icp1, space, timeout)
        final = min(latency1, latency2)
        gain = original_latency / max(final, 1e-9)
        if best_case is None or gain > best_case[-1]:
            best_case = (wq, original, original_latency, (action1, latency1), (action2, latency2), gain)
        if gain > 5.0:
            break

    wq, original, original_latency, step1, step2, gain = best_case
    print(f"Patient: query {wq.query_id}")
    print(f"  {wq.sql}\n")
    print("Diagnosis — the expert optimizer's plan:")
    print(explain(original))
    print(f"\n  original latency: {original_latency:.2f} ms")
    print(f"\nTreatment step 1: {step1[0]}  ->  {step1[1]:.2f} ms")
    print(f"Treatment step 2: {step2[0]}  ->  {step2[1]:.2f} ms")
    print(f"\nTotal improvement: {gain:.2f}x "
          f"({original_latency:.2f} ms -> {min(step1[1], step2[1]):.2f} ms)")
    print("\nIn deployed FOSS, the trained planner proposes these edits "
          "directly and the asymmetric advantage model confirms the winner "
          "without executing anything.")


if __name__ == "__main__":
    main()
