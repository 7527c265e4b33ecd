"""Tour of the database substrate: SQL, EXPLAIN, estimation errors, hints.

Shows the pieces FOSS is built on — and the estimator failures that give a
plan doctor its job:

1. run ad-hoc SQL against the IMDb-like database;
2. EXPLAIN a plan with the optimizer's estimates;
3. demonstrate an independence-assumption estimation error on a planted
   correlated column pair;
4. steer the optimizer with an incomplete-plan hint (the pg_hint_plan
   equivalent) and watch the latency change.

Run:  python examples/explore_database.py [--scale 0.05]
"""

from __future__ import annotations

import argparse

from repro.api import FossSession
from repro.catalog.datagen import correlation_mapping
from repro.core.icp import IncompletePlan
from repro.optimizer.plans import explain


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05)
    args = parser.parse_args()

    print("Opening a FOSS session over the IMDb-like dataset...")
    session = FossSession.open("job", scale=args.scale, seed=1)
    db = session.backend
    rows = db.storage.total_rows()
    print(f"  {len(db.storage.table_names)} tables, {rows:,} rows, "
          f"{db.storage.memory_bytes() / 1e6:.1f} MB\n")

    # 1. Ad-hoc SQL ----------------------------------------------------
    query = db.sql(
        "SELECT COUNT(*) FROM title AS t, movie_info AS mi "
        "WHERE mi.movie_id = t.id AND t.production_year BETWEEN 1950 AND 1990"
    )
    plan = db.plan(query).plan
    result = db.execute(query, plan)
    print(f"COUNT(*) over titles 1950-1990 joined with movie_info: "
          f"{result.aggregate_values[0]:.0f} rows in {result.latency_ms:.2f} ms\n")

    # 2. EXPLAIN -------------------------------------------------------
    print("EXPLAIN:")
    print(explain(plan))

    # 3. Estimation error on a planted correlation ---------------------
    mapping = correlation_mapping(11, 113, 500)  # movie_info.info ~ info_type_id
    info_type = 1
    consistent = db.sql(
        f"SELECT COUNT(*) FROM movie_info mi "
        f"WHERE mi.info_type_id = {info_type} AND mi.info = {int(mapping[info_type])}"
    )
    estimate = db.estimator.scan_rows(consistent, "mi")
    true_rows = db.execute(consistent, db.plan(consistent).plan).output_rows
    print("\nIndependence-assumption failure on movie_info(info_type_id, info):")
    print(f"  estimator believes {estimate:.1f} rows; truth is {true_rows} rows "
          f"({true_rows / max(estimate, 1e-9):.0f}x underestimate)")
    print("  -> join orders chosen from this estimate can be catastrophically wrong.\n")

    # 4. Hint steering (pg_hint_plan equivalent) ------------------------
    join_query = db.sql(
        "SELECT COUNT(*) FROM title AS t, movie_info AS mi, cast_info AS ci "
        "WHERE mi.movie_id = t.id AND ci.movie_id = t.id "
        "AND t.production_year BETWEEN 1900 AND 1950"
    )
    original = db.plan(join_query).plan
    icp = IncompletePlan(original.aliases, original.methods)
    original_latency = db.execute(join_query, original).latency_ms
    print(f"Expert plan: order={list(icp.order)} methods={list(icp.methods)} "
          f"-> {original_latency:.2f} ms")
    for method in ("hash", "merge", "nestloop"):
        hinted = db.plan_with_hints(join_query, icp.order, [method] * icp.num_joins).plan
        latency = db.execute(join_query, hinted).latency_ms
        marker = " (expert's pick)" if method == icp.methods[0] else ""
        print(f"  all-{method:<9} hint -> {latency:10.2f} ms{marker}")
    print("\nThese hints are exactly the mechanism FOSS's Swap/Override "
          "actions drive, one fine-grained edit at a time.")


if __name__ == "__main__":
    main()
