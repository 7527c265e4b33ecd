"""Physical plans: one flat, immutable record per left-deep plan.

Plans are left-deep (the paper's scope — PostgreSQL's and MySQL's default
search space), so a plan is its bound query plus six aligned tuples, the
same six the engine wire sends (:mod:`repro.engine.wire`):

* ``aliases``: the leaves, left to right (the first two form the deepest
  join);
* ``methods``: one join method per join, bottom-up;
* ``scan_types`` and ``index_columns``: each leaf's access path;
* ``est_rows`` and ``est_costs``: the optimizer's estimates of the ``n``
  leaves followed by those of the ``n - 1`` joins bottom-up, so the last
  entry is the root's.

Everything else is read off the query by one rule: a leaf's filters are
its alias's filters in query order (``query.alias_filters()``, memoized
with their text when the query is bound), and join ``k``'s predicates are the query's
join predicates linking leaf ``k + 1`` to the leaves before it, in query
order (what :meth:`~repro.optimizer.dp.JoinSpace.extend` estimates).  A
plan therefore always answers its query: it cannot misplace a filter or a
predicate, and the constructor refuses one that does not fit the query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.sql.ast import FilterPredicate, JoinPredicate, Query

JOIN_METHODS: Tuple[str, ...] = ("hash", "merge", "nestloop")
SCAN_TYPES: Tuple[str, ...] = ("seq", "index")

_JOIN_LABELS = {"hash": "Hash Join", "merge": "Merge Join", "nestloop": "Nested Loop"}


class _derived:
    """A plan attribute computed on first read and kept on the plan:
    ``functools.cached_property`` without the lock Python 3.11 takes on
    every first read (each plan's attributes are read once per plan)."""

    def __init__(self, compute) -> None:
        self.compute, self.name = compute, compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, plan, owner=None):
        if plan is None:
            return self
        value = plan.__dict__[self.name] = self.compute(plan)
        return value


@dataclass(frozen=True)
class Plan:
    """A left-deep plan of ``query`` (module docstring); the six fields are
    tuples."""

    query: Query
    aliases: Tuple[str, ...]
    methods: Tuple[str, ...]
    scan_types: Tuple[str, ...]
    index_columns: Tuple[Optional[str], ...]
    est_rows: Tuple[float, ...]
    est_costs: Tuple[float, ...]

    def __post_init__(self) -> None:
        query, n = self.query, len(self.aliases)
        if (
            n != len(query.tables)
            or set(self.aliases) != query.tables.keys()
            or len(self.methods) != n - 1
            or len(self.scan_types) != n
            or len(self.index_columns) != n
            or len(self.est_rows) != 2 * n - 1
            or len(self.est_costs) != 2 * n - 1
        ):
            raise ValueError(f"plan does not fit query {query.name or query.sql_text()!r}")
        for method in self.methods:
            if method not in JOIN_METHODS:
                raise ValueError(f"unknown join method {method!r}")
        for alias, scan_type, column in zip(self.aliases, self.scan_types, self.index_columns):
            if scan_type not in SCAN_TYPES:
                raise ValueError(f"unknown scan type {scan_type!r}")
            if scan_type == "index" and column not in {
                f.column.column for f in query.alias_filters()[alias][0]
            }:
                raise ValueError(f"index scan of {alias} needs a filtered index_column")

    @_derived
    def tables(self) -> Tuple[str, ...]:
        """Each leaf's table."""
        return tuple(self.query.tables[alias] for alias in self.aliases)

    @_derived
    def filters(self) -> Tuple[Tuple[FilterPredicate, ...], ...]:
        """Each leaf's filters, in query order."""
        alias_filters = self.query.alias_filters()
        return tuple(alias_filters[alias][0] for alias in self.aliases)

    @_derived
    def predicates(self) -> Tuple[Tuple[JoinPredicate, ...], ...]:
        """Each join's predicates, bottom-up; empty for a cross join."""
        position = dict(zip(self.aliases, range(len(self.aliases))))
        joins = [()] * len(self.methods)
        for predicate in self.query.join_predicates:
            left, right = position[predicate.left.alias], position[predicate.right.alias]
            if left != right:
                k = (left if left > right else right) - 1
                joins[k] += (predicate,)
        return tuple(joins)

    @_derived
    def signature(self) -> str:
        """A stable textual identity, keying the latency, encoding, statevec
        and advantage caches: ``method(left,right)`` nested from the root,
        a leaf ``scan_type(alias|filters)`` with its filters' texts sorted."""
        alias_filters = self.query.alias_filters()
        leaves = zip(self.scan_types, self.aliases)
        scan_type, alias = next(leaves)
        signature = f"{scan_type}({alias}|{alias_filters[alias][1]})"
        for method, (scan_type, alias) in zip(self.methods, leaves):
            signature = f"{method}({signature},{scan_type}({alias}|{alias_filters[alias][1]}))"
        return signature


def plan_signature(plan: Plan) -> str:
    """:attr:`Plan.signature`."""
    return plan.signature


def explain(plan: Plan) -> str:
    """Human-readable EXPLAIN-style rendering: joins from the root down, then
    the leaves left to right, each indented under its parent join."""
    n = len(plan.aliases)
    lines = []
    for depth, k in enumerate(range(n - 2, -1, -1)):
        conditions = " AND ".join(str(p) for p in plan.predicates[k]) or "<cross>"
        lines.append(
            f"{'  ' * depth}{_JOIN_LABELS[plan.methods[k]]} on {conditions}"
            f" (rows={plan.est_rows[n + k]:.0f} cost={plan.est_costs[n + k]:.0f})"
        )
    for i, (alias, table, filters) in enumerate(zip(plan.aliases, plan.tables, plan.filters)):
        index = plan.scan_types[i] == "index"
        kind = "Index Scan" if index else "Seq Scan"
        detail = f" using {plan.index_columns[i]}" if index else ""
        conditions = f" filter: {' AND '.join(str(f) for f in filters)}" if filters else ""
        lines.append(
            f"{'  ' * (n - max(i, 1))}{kind} on {table} {alias}{detail}"
            f" (rows={plan.est_rows[i]:.0f} cost={plan.est_costs[i]:.0f}){conditions}"
        )
    return "\n".join(lines)
