"""Selinger-style dynamic-programming plan enumeration (left-deep).

The enumerator explores connected subsets of the query's join graph and, for
each expansion, all join methods, keeping the cheapest plan per subset.  It
supports the constraints the baselines need: disabling join methods (Bao's
hint sets) and forcing a leading join-order prefix (HybridQO's hints).

Join space
----------
Everything the search derives from (query, statistics, indexes) is computed
once per ``optimize``/hint-completion call into a :class:`JoinSpace` and
never again per expansion:

* aliases are numbered in **alias-name order** (``names[i]``, bit ``1 << i``),
  so a set of aliases is an ``int`` mask and walking a mask's bits low to
  high visits aliases sorted by name; ``query_order`` keeps the query's own
  alias order for the places that iterate it;
* per alias: the ``best_scan`` node with its rows, cost and ``sort(rows)``,
  the base-table rows an index nested loop descends through, and the mask of
  join-graph neighbours;
* per alias: its join predicates in ``query.join_predicates`` order, each as
  ``(other-side bit, predicate, selectivity, inner-index usable)``.

One expansion primitive serves the DP, the greedy fallback, hint completion
and the constructive baselines: :meth:`JoinSpace.candidates` (who may join
next; the greedy fallback ranks :meth:`JoinSpace.reach` in query order
instead), :meth:`JoinSpace.extend` (predicates and output rows of one join)
and :meth:`JoinSpace.join_cost` (the operator's cost).

Ordering rules
--------------
The expert's plans key every cache and seed every learned search, so they
must not move by one ulp or one tie-break.  Plans are a pure function of
(query, options) because:

* selectivities are multiplied in predicate order and rows are
  ``max(1, left * right * selectivity)``; a join's cost is
  ``(left cost + scan cost) + operator cost``, in that association;
* the DP visits subsets in discovery order (``dict`` insertion order, first
  level in query order), candidates in alias-name order (cross-join
  fallback: query order) and methods in ``JOIN_METHODS`` order, and replaces
  an incumbent only on a strictly smaller cost;
* nothing iterates a ``set`` or hashes a string, so ``PYTHONHASHSEED`` is
  irrelevant.

``tests/reference_dp.py`` keeps the previous frozenset implementation as the
oracle these rules are checked against, ``float.hex`` for ``float.hex``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.optimizer.cardinality import MIN_ROWS, CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.plans import JOIN_METHODS, JoinNode, PlanNode, ScanNode
from repro.sql.ast import JoinPredicate, Query

IndexOracle = Callable[[str, str], bool]

# Predicate ops an index scan can serve.
_INDEXABLE_OPS = ("=", "IN", "BETWEEN", "<", "<=", ">", ">=")


class HintError(ValueError):
    """Raised when a hint does not describe a valid plan for the query."""


@dataclass
class OptimizerOptions:
    """Search-space restrictions (used directly by Bao/HybridQO baselines)."""

    disabled_methods: FrozenSet[str] = frozenset()
    leading_prefix: Tuple[str, ...] = ()
    max_dp_tables: int = 15

    def signature(self) -> str:
        """Stable identity for plan caching."""
        return f"dis={','.join(sorted(self.disabled_methods))}|pre={','.join(self.leading_prefix)}|dp={self.max_dp_tables}"

    def allowed_methods(self) -> Tuple[str, ...]:
        allowed = tuple(m for m in JOIN_METHODS if m not in self.disabled_methods)
        if not allowed:
            raise ValueError("all join methods disabled")
        return allowed


class JoinSpace:
    """One query's join search space, precomputed (see the module docstring).

    Aliases are addressed by index into :attr:`names`; sets of aliases are
    bit masks over those indexes.  Immutable after construction.
    """

    def __init__(self, enumerator: "PlanEnumerator", query: Query) -> None:
        estimator, cost_model = enumerator.estimator, enumerator.cost_model
        self.cost_model = cost_model
        self.names: List[str] = sorted(query.tables)
        self.index: Dict[str, int] = {alias: i for i, alias in enumerate(self.names)}
        self.query_order: List[int] = [self.index[alias] for alias in query.tables]
        self.full = (1 << len(self.names)) - 1
        self.scans: List[ScanNode] = [enumerator.best_scan(query, alias) for alias in self.names]
        self.rows: List[float] = [scan.est_rows for scan in self.scans]
        self.costs: List[float] = [scan.est_cost for scan in self.scans]
        self.sort_costs: List[float] = [cost_model.sort(rows) for rows in self.rows]
        self.base_rows: List[float] = [estimator.base_rows(scan.table) for scan in self.scans]
        self.neighbors: List[int] = [0] * len(self.names)
        self.joins: List[List[Tuple[int, JoinPredicate, float, bool]]] = [[] for _ in self.names]
        for predicate in query.join_predicates:
            selectivity = estimator.join_selectivity(query, predicate)
            for ref, other in ((predicate.left, predicate.right), (predicate.right, predicate.left)):
                i, other_bit = self.index[ref.alias], 1 << self.index[other.alias]
                self.neighbors[i] |= other_bit
                indexed = enumerator.has_index(self.scans[i].table, ref.column)
                self.joins[i].append((other_bit, predicate, selectivity, indexed))

    def mask(self, aliases: Sequence[str]) -> int:
        mask = 0
        for alias in aliases:
            mask |= 1 << self.index[alias]
        return mask

    def reach(self, mask: int) -> int:
        """Union of the neighbour masks of ``mask``'s members."""
        reach = 0
        for i, neighbors in enumerate(self.neighbors):
            if mask >> i & 1:
                reach |= neighbors
        return reach

    def candidates(self, mask: int, reach: Optional[int] = None) -> List[int]:
        """Aliases that may be joined to ``mask`` next.

        Join-graph neighbours in alias-name order; when none is left (only
        hinted plans reach a disconnected remainder — bound queries are
        connected) every remaining alias, in query order, as a cross join.
        ``reach`` is ``self.reach(mask)`` for callers that carry it along.
        """
        joinable = (self.reach(mask) if reach is None else reach) & ~mask
        if not joinable:
            return [i for i in self.query_order if not mask >> i & 1]
        found = []
        while joinable:
            low = joinable & -joinable
            found.append(low.bit_length() - 1)
            joinable ^= low
        return found

    def extend(
        self, left_rows: float, mask: int, i: int
    ) -> Tuple[Tuple[JoinPredicate, ...], float, bool]:
        """Join alias ``i`` onto a ``left_rows``-row plan over ``mask``.

        Returns the predicates linking the two sides (query order; empty for
        a cross join), the estimated output rows, and whether one of the
        predicates can drive an index nested loop into ``i``.
        """
        predicates = []
        selectivity = 1.0
        index_usable = False
        for other_bit, predicate, predicate_selectivity, indexed in self.joins[i]:
            if other_bit & mask:
                predicates.append(predicate)
                selectivity *= predicate_selectivity
                index_usable = index_usable or indexed
        out_rows = max(MIN_ROWS, left_rows * self.rows[i] * selectivity)
        return tuple(predicates), out_rows, index_usable

    def join_cost(
        self,
        method: str,
        left_rows: float,
        i: int,
        out_rows: float,
        index_usable: bool,
        left_sort: Optional[float] = None,
    ) -> float:
        """Cost of the join operator itself (children excluded).

        ``left_sort`` is ``cost_model.sort(left_rows)`` for callers that cost
        many joins onto one left side.
        """
        cost_model = self.cost_model
        right_rows = self.rows[i]
        if method == "hash":
            # Build on the smaller input, as the executor does.
            if right_rows <= left_rows:
                return cost_model.hash_join(right_rows, left_rows, out_rows)
            return cost_model.hash_join(left_rows, right_rows, out_rows)
        if method == "merge":
            if left_sort is None:
                left_sort = cost_model.sort(left_rows)
            merge = cost_model.merge_join(left_rows, right_rows, out_rows, True, True)
            return merge + left_sort + self.sort_costs[i]
        if method == "nestloop":
            plain = cost_model.nested_loop(left_rows, right_rows, out_rows)
            if index_usable:
                return min(
                    plain, cost_model.index_nested_loop(left_rows, self.base_rows[i], out_rows)
                )
            return plain
        raise ValueError(f"unknown join method {method!r}")

    def join(self, left: PlanNode, mask: int, i: int, method: str) -> JoinNode:
        """The plan joining alias ``i`` onto ``left`` (a plan over ``mask``)."""
        predicates, out_rows, index_usable = self.extend(left.est_rows, mask, i)
        op_cost = self.join_cost(method, left.est_rows, i, out_rows, index_usable)
        return JoinNode(
            left=left,
            right=self.scans[i],
            method=method,
            predicates=predicates,
            est_rows=out_rows,
            est_cost=left.est_cost + self.costs[i] + op_cost,
        )


class PlanEnumerator:
    """Cost-based left-deep plan enumeration over a query's join graph."""

    def __init__(
        self,
        estimator: CardinalityEstimator,
        cost_model: CostModel,
        index_oracle: IndexOracle,
    ) -> None:
        self.estimator = estimator
        self.cost_model = cost_model
        self.has_index = index_oracle

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def best_scan(self, query: Query, alias: str) -> ScanNode:
        """Pick the cheapest access path for one table."""
        table = query.tables[alias]
        filters = tuple(query.filters_for(alias))
        base_rows = self.estimator.base_rows(table)
        out_rows = self.estimator.scan_rows(query, alias)
        seq_cost = self.cost_model.seq_scan(base_rows, len(filters))
        best = ScanNode(
            alias=alias,
            table=table,
            scan_type="seq",
            filters=filters,
            est_rows=out_rows,
            est_cost=seq_cost,
        )
        for predicate in filters:
            if predicate.op not in _INDEXABLE_OPS:
                continue
            if not self.has_index(table, predicate.column.column):
                continue
            fetched = base_rows * max(
                0.0, min(1.0, self.estimator.filter_selectivity(query, predicate))
            )
            cost = self.cost_model.index_scan(base_rows, fetched, len(filters) - 1)
            if cost < best.est_cost:
                best = ScanNode(
                    alias=alias,
                    table=table,
                    scan_type="index",
                    index_column=predicate.column.column,
                    filters=filters,
                    est_rows=out_rows,
                    est_cost=cost,
                )
        return best

    def join_space(self, query: Query) -> JoinSpace:
        """Precompute the query's join search space under this expert."""
        return JoinSpace(self, query)

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def optimize(self, query: Query, options: Optional[OptimizerOptions] = None) -> PlanNode:
        """Find the cheapest left-deep plan under the given options."""
        options = options if options is not None else OptimizerOptions()
        prefix = options.leading_prefix
        if len(set(prefix)) != len(prefix) or not set(prefix) <= query.tables.keys():
            raise HintError(
                f"leading prefix {list(prefix)} must name distinct aliases of {query.aliases}"
            )
        aliases = query.aliases
        if len(aliases) == 1:
            return self.best_scan(query, aliases[0])
        space = self.join_space(query)
        if len(aliases) > options.max_dp_tables:
            return self._greedy(space, options)
        return self._dynamic_programming(space, options)

    def _dynamic_programming(self, space: JoinSpace, options: OptimizerOptions) -> PlanNode:
        methods = options.allowed_methods()
        prefix = [space.index[alias] for alias in options.leading_prefix]
        costs, neighbors = space.costs, space.neighbors
        extend, join_cost, sort = space.extend, space.join_cost, space.cost_model.sort
        merging = "merge" in methods
        # One dict per subset size: mask -> (cost, rows, reach, last alias,
        # method, predicates).  Dict order is discovery order and is the
        # order the next level is expanded in.
        levels = [
            {
                1 << i: (costs[i], space.rows[i], neighbors[i], i, "", ())
                for i in (prefix[:1] or space.query_order)
            }
        ]
        for size in range(2, len(space.names) + 1):
            level: Dict[int, tuple] = {}
            forced = [prefix[size - 1]] if size <= len(prefix) else None
            for mask, (cost, rows, reach, _, _, _) in levels[-1].items():
                left_sort = sort(rows) if merging else None
                for i in forced or space.candidates(mask, reach):
                    predicates, out_rows, index_usable = extend(rows, mask, i)
                    children_cost = cost + costs[i]
                    key = mask | 1 << i
                    incumbent = level.get(key)
                    best = None if incumbent is None else incumbent[0]
                    choice = ""
                    for method in methods:
                        total = children_cost + join_cost(
                            method, rows, i, out_rows, index_usable, left_sort
                        )
                        if best is None or total < best:
                            best, choice = total, method
                    if choice:
                        level[key] = (best, out_rows, reach | neighbors[i], i, choice, predicates)
            levels.append(level)

        # Materialise the winning chain by walking back from the full set.
        chain = []
        mask = space.full
        for level in reversed(levels):
            entry = level[mask]
            chain.append(entry)
            mask ^= 1 << entry[3]
        plan: PlanNode = space.scans[chain.pop()[3]]
        for total, out_rows, _, i, method, predicates in reversed(chain):
            plan = JoinNode(
                left=plan,
                right=space.scans[i],
                method=method,
                predicates=predicates,
                est_rows=out_rows,
                est_cost=total,
            )
        return plan

    def _greedy(self, space: JoinSpace, options: OptimizerOptions) -> PlanNode:
        """GEQO-flavoured greedy fallback for very large queries."""
        methods = options.allowed_methods()
        prefix = [space.index[alias] for alias in options.leading_prefix]
        rows = space.rows
        # Start from the forced prefix head, else the most selective scan;
        # every tie-break below falls to the query's alias order.
        start = prefix[0] if prefix else min(space.query_order, key=rows.__getitem__)
        plan: PlanNode = space.scans[start]
        mask = 1 << start
        joined = 1
        while mask != space.full:
            joinable = space.reach(mask) & ~mask
            remaining = [i for i in space.query_order if not mask >> i & 1]
            if joined < len(prefix):
                candidates = [prefix[joined]]
            elif joinable:
                candidates = [i for i in remaining if joinable >> i & 1]
            else:  # disconnected: cross join with the smallest table
                candidates = [min(remaining, key=rows.__getitem__)]
            best = None
            for i in candidates:
                predicates, out_rows, index_usable = space.extend(plan.est_rows, mask, i)
                for method in methods:
                    op_cost = space.join_cost(method, plan.est_rows, i, out_rows, index_usable)
                    cost = op_cost + space.costs[i]
                    if best is None or cost < best[0]:
                        best = (cost, i, method, out_rows, predicates)
            cost, i, method, out_rows, predicates = best
            plan = JoinNode(
                left=plan,
                right=space.scans[i],
                method=method,
                predicates=predicates,
                est_rows=out_rows,
                est_cost=plan.est_cost + cost,
            )
            mask |= 1 << i
            joined += 1
        return plan
