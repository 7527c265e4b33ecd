"""Test-only oracle: the row-enumerating executor the weighted-group engine replaced.

This is the previous ``repro.executor`` join pipeline kept verbatim —
``join_pairs`` / ``JoinOverflow`` from ``executor/joins.py`` and the
``execute`` / ``_run`` / ``_join`` / ``_cross_join`` / ``_gather`` /
``_aggregate`` methods of ``ExecutionEngine`` — so the differential tests in
``tests/test_executor_engine.py`` can require the counting engine to reproduce
every ``ExecutionResult`` field with ``==``.  An intermediate here is one
aligned row-id column per joined alias, one entry per joined *row*.

A few lines differ from the parent on purpose: ``_scan`` adapts the shared
scan's result to ``_Intermediate`` (the scan itself, ``_charge_join``,
``_apply_filter``, ``_index_access`` and ``_ExecState`` are inherited
unchanged; the engine's scan and charge now take a leaf's fields and a
:class:`~repro.executor.engine.Join`, which this engine reads off its tree
nodes), ``execute`` walks the tree of a plan record (``reference_plans``),
and ``MAX_JOIN_OUTPUT`` is read through the engine module at call time so
a test that monkeypatches the cap moves both engines.

Float caveat: integer ``SUM`` / ``MIN`` / ``MAX`` / ``COUNT`` do not depend on
row order, and an integer ``AVG`` below 2**53 is the exact sum over the count
either way, so those compare bitwise.  A *float* column's ``SUM`` / ``AVG``
accumulates here in row order and there over weighted groups; tests compare
those to ``rtol=1e-12``.  Nothing under ``src/`` imports this module; do not
optimise it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.executor import engine as _engine
from repro.executor.engine import ExecutionEngine, ExecutionResult, Join, TimeoutExceeded, _ExecState
from repro.optimizer.plans import Plan
from repro.sql.ast import Query
from reference_plans import JoinNode, PlanNode, ScanNode, to_tree


def join_pairs(
    left_keys: np.ndarray,
    right_keys: np.ndarray,
    max_output: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """All index pairs (i, j) with ``left_keys[i] == right_keys[j]``.

    Sort-merge based: O((n+m) log) regardless of skew.  If ``max_output`` is
    given and the (pre-computed) match count exceeds it, raises
    :class:`JoinOverflow` *before* materializing — the executor converts this
    into a timeout.
    """
    left_keys = np.asarray(left_keys)
    right_keys = np.asarray(right_keys)
    if len(left_keys) == 0 or len(right_keys) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    right_order = np.argsort(right_keys, kind="stable")
    right_sorted = right_keys[right_order]
    lo = np.searchsorted(right_sorted, left_keys, side="left")
    hi = np.searchsorted(right_sorted, left_keys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if max_output is not None and total > max_output:
        raise JoinOverflow(total)
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    left_idx = np.repeat(np.arange(len(left_keys)), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    positions = np.arange(total) - np.repeat(offsets[:-1], counts) + np.repeat(lo, counts)
    right_idx = right_order[positions]
    return left_idx, right_idx


class JoinOverflow(RuntimeError):
    """Join output exceeded the materialization cap."""

    def __init__(self, count: int) -> None:
        super().__init__(f"join output of {count} rows exceeds materialization cap")
        self.count = count


@dataclass
class _Intermediate:
    """Aligned row-id columns per alias."""

    rows: Dict[str, np.ndarray]
    count: int


class ReferenceExecutionEngine(ExecutionEngine):
    """The parent commit's ``ExecutionEngine``: one entry per joined row."""

    def execute(
        self,
        query: Query,
        plan: Plan,
        timeout_ms: Optional[float] = None,
    ) -> ExecutionResult:
        if isinstance(plan, Plan):
            plan = to_tree(plan)
        state = _ExecState(
            timeout_ms=timeout_ms,
            units_per_ms=self.cost_model.params.work_units_per_ms,
        )
        try:
            result = self._run(query, plan, state)
            # Final aggregation over the join output.
            state.charge(self.cost_model.aggregate(result.count))
            aggregates = self._aggregate(query, result)
        except TimeoutExceeded:
            deadline = timeout_ms if timeout_ms is not None else float("inf")
            return ExecutionResult(
                latency_ms=deadline,
                output_rows=0,
                timed_out=True,
                work_units=state.work,
            )
        return ExecutionResult(
            latency_ms=self.cost_model.to_milliseconds(state.work),
            output_rows=result.count,
            timed_out=False,
            work_units=state.work,
            aggregate_values=aggregates,
        )

    def _run(self, query: Query, plan: PlanNode, state: _ExecState) -> _Intermediate:
        if isinstance(plan, ScanNode):
            return self._scan(plan, state)
        assert isinstance(plan, JoinNode)
        left = self._run(query, plan.left, state)
        assert isinstance(plan.right, ScanNode), "plans are left-deep"
        right = self._scan(plan.right, state)
        return self._join(query, plan, left, right, state)

    def _scan(self, node: ScanNode, state: _ExecState) -> _Intermediate:
        scanned = super()._scan(
            node.alias, node.table, node.scan_type, node.index_column, node.filters, state
        )
        return _Intermediate(rows=dict(scanned.ids), count=scanned.count)

    def _charge_join(self, node: JoinNode, left_count, right: _Intermediate, out_count, state) -> None:
        join = Join(node.method, node.right.alias, node.right.table, node.predicates)
        super()._charge_join(join, left_count, right.count, out_count, state)

    def _join(
        self,
        query: Query,
        node: JoinNode,
        left: _Intermediate,
        right: _Intermediate,
        state: _ExecState,
    ) -> _Intermediate:
        right_alias = next(iter(right.rows))
        if not node.predicates:
            return self._cross_join(node, left, right, state)

        driving = node.predicates[0]
        left_ref, right_ref = driving.left, driving.right
        if left_ref.alias == right_alias:
            left_ref, right_ref = right_ref, left_ref
        left_keys = self._gather(query, left, left_ref.alias, left_ref.column)
        right_keys = self._gather(query, right, right_alias, right_ref.column)

        # Never materialize more output than the remaining virtual budget
        # could pay for: the timeout would fire anyway, so abort first.
        affordable = int(min(state.remaining_units() / self.cost_model.params.output_tuple, _engine.MAX_JOIN_OUTPUT)) + 1
        try:
            li, ri = join_pairs(
                left_keys, right_keys, max_output=min(_engine.MAX_JOIN_OUTPUT, affordable)
            )
        except JoinOverflow as exc:
            self._charge_join(node, left.count, right, exc.count, state)
            raise TimeoutExceeded(self.cost_model.to_milliseconds(state.work))

        rows = {alias: ids[li] for alias, ids in left.rows.items()}
        rows[right_alias] = right.rows[right_alias][ri]
        result = _Intermediate(rows=rows, count=len(li))

        # Residual equi-join predicates between the same inputs.
        for predicate in node.predicates[1:]:
            a = self._gather(query, result, predicate.left.alias, predicate.left.column)
            b = self._gather(query, result, predicate.right.alias, predicate.right.column)
            keep = a == b
            result = _Intermediate(
                rows={alias: ids[keep] for alias, ids in result.rows.items()},
                count=int(keep.sum()),
            )

        self._charge_join(node, left.count, right, result.count, state)
        return result

    def _cross_join(
        self,
        node: JoinNode,
        left: _Intermediate,
        right: _Intermediate,
        state: _ExecState,
    ) -> _Intermediate:
        right_alias = next(iter(right.rows))
        out_count = left.count * right.count
        # Charge before materializing: cross joins are usually catastrophic.
        state.charge(self.cost_model.nested_loop(left.count, right.count, out_count))
        if out_count > _engine.MAX_JOIN_OUTPUT:
            raise TimeoutExceeded(self.cost_model.to_milliseconds(state.work))
        li = np.repeat(np.arange(left.count), right.count)
        ri = np.tile(np.arange(right.count), left.count)
        rows = {alias: ids[li] for alias, ids in left.rows.items()}
        rows[right_alias] = right.rows[right_alias][ri]
        return _Intermediate(rows=rows, count=out_count)

    def _gather(self, query: Query, inter: _Intermediate, alias: str, column: str) -> np.ndarray:
        """Column values for ``alias`` at the intermediate's row positions."""
        table = self.storage.table(query.tables[alias])
        return table.gather(column, inter.rows[alias])

    def _aggregate(self, query: Query, result: _Intermediate) -> Tuple[float, ...]:
        values = []
        for aggregate in query.aggregates:
            if aggregate.function == "COUNT" or result.count == 0:
                values.append(float(result.count) if aggregate.function == "COUNT" else 0.0)
                continue
            column = self._gather(query, result, aggregate.column.alias, aggregate.column.column)
            if aggregate.function == "SUM":
                values.append(float(column.sum()))
            elif aggregate.function == "MIN":
                values.append(float(column.min()))
            elif aggregate.function == "MAX":
                values.append(float(column.max()))
            elif aggregate.function == "AVG":
                values.append(float(column.mean()))
            else:
                raise ValueError(f"unsupported aggregate {aggregate.function}")
        return tuple(values)
