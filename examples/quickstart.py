"""Quickstart: open a FOSS session, train the doctor, serve SQL text.

Builds a miniature JOB-like database through the ``repro.api`` facade,
shows the expert optimizer's plan for one query, trains FOSS briefly, and
serves the same query as raw SQL text through the ``OptimizerService``.

Run:  python examples/quickstart.py [--scale 0.05] [--iterations 3]
"""

from __future__ import annotations

import argparse

from repro.api import FossConfig, FossSession
from repro.optimizer.plans import explain


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--iterations", type=int, default=3)
    parser.add_argument("--episodes", type=int, default=80)
    args = parser.parse_args()

    print("Opening a FOSS session over a miniature IMDb-like database...")
    config = FossConfig(
        max_steps=3,
        episodes_per_update=args.episodes,
        bootstrap_episodes=max(10, args.episodes // 3),
        aam_retrain_threshold=60,
        seed=7,
    )
    with FossSession.open("job", scale=args.scale, seed=1, config=config) as session:
        db = session.backend
        print(f"  {len(db.storage.table_names)} tables, {db.storage.total_rows():,} rows total")
        print(f"  {len(session.workload.train)} training / {len(session.workload.test)} test queries\n")

        wq = session.workload.train[0]
        print(f"Query {wq.query_id}:\n  {wq.sql}\n")

        planning = db.plan(wq.query)
        print("Expert optimizer's plan (the 'original plan' FOSS starts from):")
        print(explain(planning.plan))
        original = db.execute(wq.query, planning.plan)
        print(f"\nOriginal plan latency: {original.latency_ms:.2f} ms "
              f"({original.output_rows} join output rows)\n")

        print(f"Training FOSS briefly (bootstrap + {args.iterations} iterations)...")
        session.train(iterations=args.iterations, verbose=True)

        service = session.service()
        print("\nFOSS serving the same query as raw SQL text...")
        chosen = service.optimize_sql(wq.sql)
        print(f"  optimization time: {chosen.optimization_ms:.1f} ms, "
              f"candidates considered: {chosen.candidates_considered}, "
              f"chosen at step {chosen.chosen_step}")
        doctored = service.execute_sql(wq.sql)
        print(f"  FOSS plan latency: {doctored.latency_ms:.2f} ms "
              f"(original: {original.latency_ms:.2f} ms)")
        if doctored.latency_ms < original.latency_ms * 0.95:
            print("  -> FOSS repaired the plan!")
        else:
            print("  -> FOSS kept (or matched) the original plan — the expert "
                  "was already fine on this query.")
        stats = service.stats()
        print(f"\nService stats: {stats['requests']} requests, "
              f"cache hit rate {stats['cache_hit_rate']:.0%}, "
              f"p50 latency {stats['latency_p50_ms']:.1f} ms")


if __name__ == "__main__":
    main()
