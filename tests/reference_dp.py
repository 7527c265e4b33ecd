"""Test-only oracle: the frozenset/dict planner the bitmask DP replaced.

This is the previous ``repro.optimizer.dp`` / ``repro.optimizer.hints``
enumeration code, kept verbatim (:func:`joins_between` per expansion,
``join_selectivity`` per predicate, a ``JoinNode`` per improvement) so the
differential tests in ``tests/test_optimizer.py`` can require the fast path
to reproduce it ``float.hex`` for ``float.hex``.  Nothing under ``src/``
imports it; do not optimise it.  It also keeps the networkx join graphs
(:func:`query_join_graph`, :func:`schema_join_graph`) that ``Query`` and
``Schema`` used to build, as oracles for their adjacency and connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.catalog.schema import Schema
from repro.optimizer.cardinality import MIN_ROWS, CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.dp import IndexOracle, OptimizerOptions
from reference_plans import JoinNode, PlanNode, ScanNode
from repro.sql.ast import JoinPredicate, Query

def query_join_graph(query: Query) -> nx.Graph:
    """Undirected alias graph; each edge carries its join predicates."""
    graph = nx.Graph()
    graph.add_nodes_from(query.tables)
    for pred in query.join_predicates:
        a, b = pred.aliases()
        if graph.has_edge(a, b):
            graph[a][b]["predicates"].append(pred)
        else:
            graph.add_edge(a, b, predicates=[pred])
    return graph


def schema_join_graph(schema: Schema) -> nx.Graph:
    """Undirected graph over tables; edges carry the joinable column pair."""
    graph = nx.Graph()
    graph.add_nodes_from(schema.table_names)
    for fk in schema.foreign_keys:
        graph.add_edge(fk.table, fk.ref_table, columns=(fk.column, fk.ref_column), fk=fk)
    return graph


def joins_between(query: Query, group_a: Sequence[str], group_b: Sequence[str]) -> List[JoinPredicate]:
    """Join predicates linking any alias in group_a to any in group_b."""
    set_a, set_b = set(group_a), set(group_b)
    result = []
    for pred in query.join_predicates:
        la, ra = pred.aliases()
        if (la in set_a and ra in set_b) or (la in set_b and ra in set_a):
            result.append(pred)
    return result


# Predicate ops an index scan can serve.
_INDEXABLE_OPS = ("=", "IN", "BETWEEN", "<", "<=", ">", ">=")


def reference_join_rows(
    estimator: CardinalityEstimator,
    query: Query,
    left_rows: float,
    right_rows: float,
    predicates: Iterable[JoinPredicate],
) -> float:
    """Cardinality of joining two inputs (cross joins: the full product)."""
    selectivity = 1.0
    for predicate in predicates:
        selectivity *= estimator.join_selectivity(query, predicate)
    return max(MIN_ROWS, left_rows * right_rows * selectivity)


@dataclass
class _DpEntry:
    plan: PlanNode
    rows: float
    cost: float
    order: Tuple[str, ...]


class ReferenceEnumerator:
    """The parent commit's ``PlanEnumerator``: frozenset/dict DP, greedy, join costing."""

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

    # ------------------------------------------------------------------
    # join costing
    # ------------------------------------------------------------------
    def join_cost(
        self,
        query: Query,
        method: str,
        left_rows: float,
        right_scan: ScanNode,
        out_rows: float,
        predicates: Sequence[JoinPredicate],
    ) -> float:
        """Cost of the join operator itself (children excluded)."""
        right_rows = right_scan.est_rows
        if method == "hash":
            # Build on the smaller input, as the executor does.
            build, probe = (right_rows, left_rows) if right_rows <= left_rows else (left_rows, right_rows)
            return self.cost_model.hash_join(build, probe, out_rows)
        if method == "merge":
            return self.cost_model.merge_join(left_rows, right_rows, out_rows)
        if method == "nestloop":
            plain = self.cost_model.nested_loop(left_rows, right_rows, out_rows)
            index_col = self._inner_index_column(query, right_scan, predicates)
            if index_col is not None:
                base_rows = self.estimator.base_rows(right_scan.table)
                indexed = self.cost_model.index_nested_loop(left_rows, base_rows, out_rows)
                return min(plain, indexed)
            return plain
        raise ValueError(f"unknown join method {method!r}")

    def _inner_index_column(
        self,
        query: Query,
        right_scan: ScanNode,
        predicates: Sequence[JoinPredicate],
    ) -> Optional[str]:
        """Column of the inner table usable for an index nested loop, if any."""
        for predicate in predicates:
            for ref in (predicate.left, predicate.right):
                if ref.alias == right_scan.alias and self.has_index(right_scan.table, ref.column):
                    return ref.column
        return None

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def optimize(self, query: Query, options: Optional[OptimizerOptions] = None) -> PlanNode:
        """Find the cheapest left-deep plan under the given options."""
        options = options if options is not None else OptimizerOptions()
        aliases = query.aliases
        if len(aliases) == 1:
            return self.best_scan(query, aliases[0])
        if len(aliases) > options.max_dp_tables:
            return self._greedy(query, options)
        return self._dynamic_programming(query, options)

    def _dynamic_programming(self, query: Query, options: OptimizerOptions) -> PlanNode:
        aliases = query.aliases
        graph = query_join_graph(query)
        neighbors: Dict[str, Set[str]] = {a: set(graph.neighbors(a)) for a in aliases}
        scans = {alias: self.best_scan(query, alias) for alias in aliases}
        methods = options.allowed_methods()
        prefix = options.leading_prefix

        best: Dict[FrozenSet[str], _DpEntry] = {}
        for alias, scan in scans.items():
            if prefix and alias != prefix[0]:
                continue
            best[frozenset([alias])] = _DpEntry(
                plan=scan, rows=scan.est_rows, cost=scan.est_cost, order=(alias,)
            )

        frontier = list(best)
        for size in range(2, len(aliases) + 1):
            new_best: Dict[FrozenSet[str], _DpEntry] = {}
            for subset in frontier:
                entry = best[subset]
                candidates = self._expansion_candidates(subset, neighbors, aliases, prefix, size)
                for alias in candidates:
                    predicates = joins_between(query, list(subset), [alias])
                    scan = scans[alias]
                    out_rows = reference_join_rows(self.estimator, query, entry.rows, scan.est_rows, predicates)
                    for method in methods:
                        op_cost = self.join_cost(query, method, entry.rows, scan, out_rows, predicates)
                        total = entry.cost + scan.est_cost + op_cost
                        key = subset | {alias}
                        incumbent = new_best.get(key)
                        if incumbent is None or total < incumbent.cost:
                            plan = JoinNode(
                                left=entry.plan,
                                right=scan,
                                method=method,
                                predicates=tuple(predicates),
                                est_rows=out_rows,
                                est_cost=total,
                            )
                            new_best[key] = _DpEntry(
                                plan=plan, rows=out_rows, cost=total, order=entry.order + (alias,)
                            )
            if not new_best:
                raise RuntimeError("DP enumeration stalled (disconnected join graph?)")
            best.update(new_best)
            frontier = list(new_best)

        full = frozenset(aliases)
        return best[full].plan

    def _expansion_candidates(
        self,
        subset: FrozenSet[str],
        neighbors: Dict[str, Set[str]],
        aliases: List[str],
        prefix: Tuple[str, ...],
        size: int,
    ) -> List[str]:
        """Aliases we may append to ``subset`` at position ``size`` (1-based)."""
        if prefix and size <= len(prefix):
            forced = prefix[size - 1]
            return [forced] if forced not in subset else []
        connected = set()
        for alias in subset:
            connected |= neighbors[alias]
        connected -= subset
        if connected:
            return sorted(connected)
        # Disconnected remainder: fall back to a cross join (hinted plans may
        # require this; plain optimization never reaches here for bound
        # queries, which are connected).
        return [a for a in aliases if a not in subset]

    def _greedy(self, query: Query, options: OptimizerOptions) -> PlanNode:
        """GEQO-flavoured greedy fallback for very large queries."""
        # Keep the query's alias order for every tie-break: iterating raw
        # sets would break cost ties by string hash, making the expert's
        # plan depend on PYTHONHASHSEED.
        alias_order = list(query.aliases)
        aliases = set(alias_order)
        scans = {alias: self.best_scan(query, alias) for alias in alias_order}
        methods = options.allowed_methods()
        prefix = list(options.leading_prefix)
        # Start from the forced prefix head, else the most selective scan.
        start = prefix[0] if prefix else min(alias_order, key=lambda a: scans[a].est_rows)
        plan: PlanNode = scans[start]
        rows = scans[start].est_rows
        joined = {start}
        graph = query_join_graph(query)
        while joined != aliases:
            forced = None
            if len(joined) < len(prefix):
                forced = prefix[len(joined)]
            choices = []
            candidates = [forced] if forced else [a for a in alias_order if a not in joined]
            for alias in candidates:
                if forced is None and not any(graph.has_edge(alias, j) for j in joined):
                    continue
                predicates = joins_between(query, list(joined), [alias])
                scan = scans[alias]
                out_rows = reference_join_rows(self.estimator, query, rows, scan.est_rows, predicates)
                for method in methods:
                    op_cost = self.join_cost(query, method, rows, scan, out_rows, predicates)
                    choices.append((op_cost + scan.est_cost, alias, method, out_rows, predicates))
            if not choices:  # disconnected: cross join with the smallest table
                alias = min(
                    (a for a in alias_order if a not in joined),
                    key=lambda a: scans[a].est_rows,
                )
                predicates = []
                scan = scans[alias]
                out_rows = reference_join_rows(self.estimator, query, rows, scan.est_rows, predicates)
                choices = [
                    (
                        self.join_cost(query, m, rows, scan, out_rows, predicates) + scan.est_cost,
                        alias,
                        m,
                        out_rows,
                        predicates,
                    )
                    for m in methods
                ]
            cost, alias, method, out_rows, predicates = min(choices, key=lambda c: c[0])
            plan = JoinNode(
                left=plan,
                right=scans[alias],
                method=method,
                predicates=tuple(predicates),
                est_rows=out_rows,
                est_cost=plan.est_cost + cost,
            )
            rows = out_rows
            joined.add(alias)
        return plan


def reference_hinted_plan(
    enumerator: ReferenceEnumerator,
    query: Query,
    join_order: Sequence[str],
    join_methods: Sequence[str],
) -> PlanNode:
    """The parent commit's ``HintedPlanBuilder.build`` (validation omitted)."""
    scans = {alias: enumerator.best_scan(query, alias) for alias in join_order}
    if len(join_order) == 1:
        return scans[join_order[0]]

    plan: PlanNode = scans[join_order[0]]
    rows = plan.est_rows
    prefix: List[str] = [join_order[0]]
    for level, alias in enumerate(join_order[1:]):
        method = join_methods[level]
        scan = scans[alias]
        predicates = tuple(joins_between(query, prefix, [alias]))
        out_rows = reference_join_rows(enumerator.estimator, query, rows, scan.est_rows, predicates)
        op_cost = enumerator.join_cost(query, method, rows, scan, out_rows, predicates)
        plan = JoinNode(
            left=plan,
            right=scan,
            method=method,
            predicates=predicates,
            est_rows=out_rows,
            est_cost=plan.est_cost + scan.est_cost + op_cost,
        )
        rows = out_rows
        prefix.append(alias)
    return plan
