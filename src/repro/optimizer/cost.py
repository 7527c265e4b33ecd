"""The cost model shared by optimizer and virtual-time executor.

Costs are expressed in abstract *work units* (roughly "tuple touches").
The optimizer evaluates these formulas with **estimated** cardinalities to
pick a plan; the executor evaluates the *same* formulas with **true**
cardinalities and converts the result to virtual milliseconds.  Plans chosen
under bad estimates therefore pay their true price at execution time —
exactly the failure mode FOSS repairs.

The engine has exactly two price lists, both constants here:
:data:`PLANNER_COSTS`, what the optimizer believes, and
:data:`RUNTIME_COSTS`, what execution charges.  A remote client plans with
the server's costs because no other planner cost model exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CostParameters:
    """Per-operation work-unit charges (PostgreSQL-flavoured)."""

    seq_tuple: float          # read one tuple in a sequential scan
    filter_term: float        # evaluate one predicate term on one tuple
    index_descent: float      # one B-tree descent
    index_tuple: float        # fetch one heap tuple via index (random IO)
    hash_build_tuple: float   # insert one tuple into a hash table
    hash_probe_tuple: float   # probe the table with one tuple
    sort_tuple_log: float     # per tuple per log2(n) comparison in sort
    merge_tuple: float        # advance one tuple during merge
    nl_pair: float            # evaluate one (outer, inner) pair in NL
    nl_rescan_tuple: float    # rescan one inner tuple (materialized)
    output_tuple: float       # emit one join output tuple
    agg_tuple: float          # aggregate one input tuple
    work_units_per_ms: float  # latency conversion


class CostModel:
    """Operator cost formulas over (estimated or true) cardinalities.

    ``hash_join``, ``nested_loop``, ``index_probe_loop`` and a pre-sorted
    ``merge_join`` are arithmetic only, so the expert DP also calls them on
    numpy arrays; every logarithm (``sort``, ``index_descent``) is taken on
    a Python float with ``math.log2``, never on an array.
    """

    def __init__(self, params: CostParameters) -> None:
        self.params = params

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def seq_scan(self, base_rows: float, num_filter_terms: int) -> float:
        p = self.params
        return base_rows * (p.seq_tuple + p.filter_term * num_filter_terms)

    def index_descent(self, base_rows: float) -> float:
        """One B-tree descent into a ``base_rows``-row table."""
        return self.params.index_descent * max(1.0, math.log2(base_rows + 2))

    def index_scan(self, base_rows: float, fetched_rows: float, residual_terms: int) -> float:
        """Index access returning ``fetched_rows``, then residual filtering."""
        p = self.params
        descent = self.index_descent(base_rows)
        return descent + fetched_rows * (p.index_tuple + p.filter_term * residual_terms)

    # ------------------------------------------------------------------
    # joins (costs exclude children; output charge included)
    # ------------------------------------------------------------------
    def hash_join(self, build_rows: float, probe_rows: float, out_rows: float) -> float:
        p = self.params
        return (
            build_rows * p.hash_build_tuple
            + probe_rows * p.hash_probe_tuple
            + out_rows * p.output_tuple
        )

    def merge_join(
        self,
        left_rows: float,
        right_rows: float,
        out_rows: float,
        left_sorted: bool = False,
        right_sorted: bool = False,
    ) -> float:
        p = self.params
        cost = (left_rows + right_rows) * p.merge_tuple + out_rows * p.output_tuple
        if not left_sorted:
            cost += self.sort(left_rows)
        if not right_sorted:
            cost += self.sort(right_rows)
        return cost

    def sort(self, rows: float) -> float:
        return rows * math.log2(rows + 2) * self.params.sort_tuple_log

    def sort_each(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`sort` of every element of a float64 array, bit for bit.

        The logarithms stay ``math.log2``, one per element: ``np.log2`` may
        round differently.
        """
        logs = np.fromiter(map(math.log2, (rows + 2).tolist()), float, len(rows))
        return rows * logs * self.params.sort_tuple_log

    def nested_loop(self, outer_rows: float, inner_rows: float, out_rows: float) -> float:
        """Plain nested loop with a materialized inner side."""
        p = self.params
        pair_cost = outer_rows * inner_rows * p.nl_pair  # rescans folded into nl_pair
        first_scan = inner_rows * p.nl_rescan_tuple
        return pair_cost + first_scan + out_rows * p.output_tuple

    def index_nested_loop(self, outer_rows: float, inner_base_rows: float, out_rows: float) -> float:
        """Nested loop probing an index on the inner base table."""
        return self.index_probe_loop(outer_rows, self.index_descent(inner_base_rows), out_rows)

    def index_probe_loop(self, outer_rows, descent, out_rows):
        """:meth:`index_nested_loop` given the inner index's :meth:`index_descent`.

        Arithmetic only, so it takes floats or numpy arrays alike (the
        expert DP passes whole levels of joins at once).
        """
        p = self.params
        per_probe = descent * 0.08 + p.index_tuple
        return outer_rows * per_probe + out_rows * (p.index_tuple + p.output_tuple)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def aggregate(self, input_rows: float) -> float:
        return input_rows * self.params.agg_tuple

    def to_milliseconds(self, work_units: float) -> float:
        return work_units / self.params.work_units_per_ms


#: The optimizer's charges: every expert plan, hint completion and
#: constructive join space is priced by them, on every backend.
PLANNER_COSTS = CostModel(
    CostParameters(
        seq_tuple=1.0,
        filter_term=0.15,
        index_descent=12.0,
        index_tuple=4.0,
        hash_build_tuple=2.0,
        hash_probe_tuple=1.2,
        sort_tuple_log=0.35,
        merge_tuple=0.8,
        nl_pair=0.08,
        nl_rescan_tuple=0.4,
        output_tuple=0.25,
        agg_tuple=0.2,
        work_units_per_ms=20_000.0,
    )
)

#: The *true* charges every execution bills.  They deliberately differ
#: from :data:`PLANNER_COSTS` — PostgreSQL's cost constants (seq_page_cost,
#: random_page_cost, ...) are likewise miscalibrated against real
#: hardware.  The planner systematically under-prices random index access
#: and over-prices hash/merge work, so its join-method picks are sometimes
#: wrong even when its cardinalities are right; FOSS's ``Override`` actions
#: repair exactly this (the paper's query-1b story).
RUNTIME_COSTS = CostModel(
    CostParameters(
        seq_tuple=0.6,
        filter_term=0.12,
        index_descent=22.0,
        index_tuple=7.5,
        hash_build_tuple=1.1,
        hash_probe_tuple=0.8,
        sort_tuple_log=0.20,
        merge_tuple=0.5,
        nl_pair=0.08,
        nl_rescan_tuple=0.4,
        output_tuple=0.2,
        agg_tuple=0.2,
        work_units_per_ms=20_000.0,
    )
)
