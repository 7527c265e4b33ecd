"""Test-only oracle: the plan tree that ``repro.optimizer.plans.Plan`` replaced.

``PlanNode`` / ``ScanNode`` / ``JoinNode``, ``iter_nodes``,
``plan_signature`` and ``explain`` are the previous
``repro.optimizer.plans`` kept verbatim: a recursive tree whose leaves
carry their filters and whose joins carry their predicates.  The
reference DP (``reference_dp.py``), executor (``reference_executor.py``)
and encoder (``reference_encoding.py``) still build or walk it, and
``tests/test_plan_record.py`` holds the record to it.

Two converters join the two shapes, and :func:`descriptor` is the wire
descriptor a tree used to send:

* :func:`to_tree` — a record as the tree the optimizer used to build,
  each leaf's filters and each join's predicates as the record reads them
  off its query;
* :func:`to_record` — a tree's six lists bound to a query.  It refuses a
  tree that is not left-deep (a join on a join's right), and one whose
  filters, predicates or tables are not the ones its query gives those
  positions, so no tree converts to a record that describes another plan.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.optimizer.plans import JOIN_METHODS, SCAN_TYPES, Plan
from repro.sql.ast import FilterPredicate, JoinPredicate, Query


@dataclass
class PlanNode:
    """Base physical node with optimizer annotations."""

    est_rows: float = field(default=0.0, kw_only=True)
    est_cost: float = field(default=0.0, kw_only=True)


@dataclass
class ScanNode(PlanNode):
    """Access one base table through a sequential or index scan."""

    alias: str
    table: str
    scan_type: str = "seq"
    index_column: Optional[str] = None
    filters: Tuple[FilterPredicate, ...] = ()

    def __post_init__(self) -> None:
        if self.scan_type not in SCAN_TYPES:
            raise ValueError(f"unknown scan type {self.scan_type!r}")
        if self.scan_type == "index" and self.index_column is None:
            raise ValueError("index scan requires index_column")


@dataclass
class JoinNode(PlanNode):
    """Join a left subplan with a right subplan."""

    left: PlanNode
    right: PlanNode
    method: str
    predicates: Tuple[JoinPredicate, ...] = ()

    def __post_init__(self) -> None:
        if self.method not in JOIN_METHODS:
            raise ValueError(f"unknown join method {self.method!r}")


def iter_nodes(plan: PlanNode) -> Iterator[PlanNode]:
    """Post-order traversal of the plan tree."""
    if isinstance(plan, JoinNode):
        yield from iter_nodes(plan.left)
        yield from iter_nodes(plan.right)
    yield plan


def plan_signature(plan: PlanNode) -> str:
    """The tree's textual identity (no memo)."""
    if isinstance(plan, ScanNode):
        filters = ",".join(sorted(str(f) for f in plan.filters))
        return f"{plan.scan_type}({plan.alias}|{filters})"
    assert isinstance(plan, JoinNode)
    return f"{plan.method}({plan_signature(plan.left)},{plan_signature(plan.right)})"


def explain(plan: PlanNode, indent: int = 0) -> str:
    """Human-readable EXPLAIN-style rendering."""
    pad = "  " * indent
    if isinstance(plan, ScanNode):
        kind = "Index Scan" if plan.scan_type == "index" else "Seq Scan"
        detail = f" using {plan.index_column}" if plan.scan_type == "index" else ""
        filters = f" filter: {' AND '.join(str(f) for f in plan.filters)}" if plan.filters else ""
        return (
            f"{pad}{kind} on {plan.table} {plan.alias}{detail}"
            f" (rows={plan.est_rows:.0f} cost={plan.est_cost:.0f}){filters}"
        )
    assert isinstance(plan, JoinNode)
    label = {"hash": "Hash Join", "merge": "Merge Join", "nestloop": "Nested Loop"}[plan.method]
    conds = " AND ".join(str(p) for p in plan.predicates) or "<cross>"
    lines = [
        f"{pad}{label} on {conds} (rows={plan.est_rows:.0f} cost={plan.est_cost:.0f})",
        explain(plan.left, indent + 1),
        explain(plan.right, indent + 1),
    ]
    return "\n".join(lines)


def to_tree(plan: Plan) -> PlanNode:
    """The tree a record describes."""
    n = len(plan.aliases)
    scans = [
        ScanNode(
            alias=alias,
            table=table,
            scan_type=scan_type,
            index_column=index_column,
            filters=filters,
            est_rows=plan.est_rows[i],
            est_cost=plan.est_costs[i],
        )
        for i, (alias, table, scan_type, index_column, filters) in enumerate(
            zip(plan.aliases, plan.tables, plan.scan_types, plan.index_columns, plan.filters)
        )
    ]
    tree: PlanNode = scans[0]
    for k, (method, predicates) in enumerate(zip(plan.methods, plan.predicates)):
        tree = JoinNode(
            left=tree,
            right=scans[k + 1],
            method=method,
            predicates=predicates,
            est_rows=plan.est_rows[n + k],
            est_cost=plan.est_costs[n + k],
        )
    return tree


def descriptor(tree: PlanNode) -> list:
    """The wire descriptor of a left-deep tree: the previous
    ``wire.plan_to_wire``, verbatim but for its error message."""
    joins: List[JoinNode] = []
    node = tree
    while isinstance(node, JoinNode):
        joins.append(node)
        node = node.left
    joins.reverse()
    scans = [node] + [join.right for join in joins]
    if not all(isinstance(scan, ScanNode) for scan in scans):
        raise ValueError("only a left-deep tree (every join's right child a scan) is a plan")
    return [
        [scan.alias for scan in scans],
        [join.method for join in joins],
        [scan.scan_type for scan in scans],
        [scan.index_column for scan in scans],
        [scan.est_rows for scan in scans] + [join.est_rows for join in joins],
        [scan.est_cost for scan in scans] + [join.est_cost for join in joins],
    ]


def to_record(tree: PlanNode, query: Query) -> Plan:
    """A left-deep tree's record over ``query`` (module docstring)."""
    plan = Plan(query, *map(tuple, descriptor(tree)))
    if to_tree(plan) != tree:
        raise ValueError("the tree's tables, filters or predicates are not its query's")
    return plan
