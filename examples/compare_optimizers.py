"""Compare all six optimizers (the paper's Table I, one workload).

Every method is constructed **by name** through the ``repro.api`` registry,
trained (FOSS through its session, a baseline on the train split) and
evaluated by the shared harness; PostgreSQL is the 1.0 reference.

Run:  python examples/compare_optimizers.py [--workload job|tpcds|stack]
"""

from __future__ import annotations

import argparse
import time

from repro.api import FossConfig, FossSession, create_optimizer
from repro.experiments.harness import MethodResult, evaluate_optimizer
from repro.experiments.reporting import render_table1

# (registry name, report label, training iterations multiplier)
METHODS = [
    ("postgresql", "PostgreSQL", 0),
    ("bao", "Bao", 1),
    ("hybridqo", "HybridQO", 1),
    ("balsa", "Balsa", 1),
    ("loger", "Loger", 1),
    ("foss", "FOSS", 2),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="job", choices=("job", "tpcds", "stack"))
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--iterations", type=int, default=3)
    parser.add_argument("--episodes", type=int, default=120)
    args = parser.parse_args()

    print(f"Building the {args.workload} workload (scale {args.scale})...")
    config = FossConfig(
        max_steps=3,
        episodes_per_update=args.episodes,
        bootstrap_episodes=max(10, args.episodes // 3),
        aam_retrain_threshold=80,
        seed=7,
    )
    with FossSession.open(args.workload, scale=args.scale, seed=1, config=config) as session:
        workload = session.workload
        results = []
        for name, label, iteration_factor in METHODS:
            iterations = args.iterations * iteration_factor
            print(f"Training + evaluating {label}"
                  f"{f' ({iterations} iterations)' if iterations else ''}...")
            start = time.perf_counter()
            optimizer = create_optimizer(name, session)
            if iterations and name == "foss":
                session.train(iterations)
            elif iterations:
                optimizer.train(workload.train, iterations=iterations)
            result = MethodResult(
                method=label,
                workload=workload.name,
                train=evaluate_optimizer(session.backend, workload.train, optimizer),
                test=evaluate_optimizer(session.backend, workload.test, optimizer),
                training_time_s=time.perf_counter() - start,
            )
            results.append(result)
            print(f"  {label:<11} train WRL {result.train.wrl:5.2f} GMRL {result.train.gmrl:5.2f} | "
                  f"test WRL {result.test.wrl:5.2f} GMRL {result.test.gmrl:5.2f} "
                  f"(trained {result.training_time_s:.0f}s)")

        print("\n" + render_table1(results, [args.workload]))
        print("\n(Metrics below 1.0 beat the expert. At these reduced training "
              "budgets the margins are smaller than the paper's, but the "
              "ordering should match: FOSS lowest, Bao limited, Balsa unstable.)")


if __name__ == "__main__":
    main()
