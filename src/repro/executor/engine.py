"""The virtual-time execution engine.

Executes a left-deep plan bottom-up, one position at a time: the first two
scans, then each join with the scan of the next leaf.  Latency is virtual,
so what the engine
must learn from the data is each operator's true input and output
*cardinality* — it counts instead of enumerating.  An intermediate result is
a set of **weighted groups**: one entry per distinct tuple of the row ids a
later operator will read (a predicate of a join above, or a non-``COUNT``
aggregate), plus the number of joined rows that entry stands for; the
operator's output cardinality is the sum of the weights.  Aliases nobody
reads again have no id column, and the final join under ``COUNT(*)`` builds
nothing at all.

Each join ranks both inputs over the scanned side's key values, which gives
the exact output count before anything is built; the materialization cap, the
``affordable`` check and the operator's charge all run on that integer.  After
each operator the engine charges the operator's true-cardinality cost through
:data:`~repro.optimizer.cost.RUNTIME_COSTS` and aborts with
:class:`TimeoutExceeded` once the accumulated virtual time passes the deadline —
the paper's dynamic-timeout mechanism (1.5x the original plan's latency).

Count one operator ahead, then build.  A timeout usually fires on the operator
*above* a large output, so a join whose output would hold more rows than its
two inputs hold entries first runs the opening checks of the operator above
against the unbuilt output, on a copy of the accumulated work: the final
aggregation's charge at the root; a cross join's charge and cap; a predicate
join's cap and ``affordable`` check on its driving predicate, counted over the
output's two factors, and for a single-predicate join its charge.  That
operator's right input is a scan, independent of the data below, so it runs
first, at its own place in the charge sequence.  If a check times out, the
engine keeps exactly what it charged and raises there, and the doomed output is
never allocated; otherwise it builds as usual and the operator above re-runs
the same checks on the same integers.  A smaller output costs less to build
than to look ahead over.

Every charge is the same float added in the same order as in a
row-enumerating engine (``tests/reference_executor.py``), so every
:class:`ExecutionResult` — ``work_units`` and every timeout point included —
is bitwise the one that engine produces; the differential tests hold the two
equal with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.executor.joins import Ranks, match_counts, pair_rows, rank_keys, refine_keys
from repro.optimizer.cost import RUNTIME_COSTS
from repro.optimizer.plans import Plan
from repro.sql.ast import FilterPredicate, JoinPredicate, Query
from repro.storage.database import StorageDatabase

# Hard cap on materialized join output; joins beyond this are necessarily
# far past any reasonable timeout, so the engine converts them to timeouts.
MAX_JOIN_OUTPUT = 3_000_000


class TimeoutExceeded(RuntimeError):
    """Virtual execution time passed the deadline."""

    def __init__(self, elapsed_ms: float) -> None:
        super().__init__(f"virtual execution exceeded timeout at {elapsed_ms:.2f} ms")
        self.elapsed_ms = elapsed_ms


@dataclass
class ExecutionResult:
    """Outcome of executing one plan."""

    latency_ms: float
    output_rows: int
    timed_out: bool = False
    work_units: float = 0.0
    aggregate_values: Tuple[float, ...] = ()


class Join(NamedTuple):
    """One join of a plan as its operator reads it: the method, the
    scanned (right) input's alias and table, and the predicates."""

    method: str
    alias: str
    table: str
    predicates: Tuple[JoinPredicate, ...]


@dataclass
class _Groups:
    """Distinct tuples of the row ids a later operator reads, with multiplicities.

    ``ids`` holds one aligned row-id column per alias still needed above,
    ``weight`` the number of joined rows each entry stands for (always >= 1)
    and ``count`` their sum: the operator's true output cardinality.
    """

    ids: Dict[str, np.ndarray]
    weight: np.ndarray
    count: int


class ExecutionEngine:
    """Executes plans against storage with virtual-time accounting."""

    cost_model = RUNTIME_COSTS  # every execution bills the true charges

    def __init__(self, storage: StorageDatabase) -> None:
        self.storage = storage

    # ------------------------------------------------------------------
    def execute(
        self,
        query: Query,
        plan: Plan,
        timeout_ms: Optional[float] = None,
    ) -> ExecutionResult:
        """Run ``plan``; returns latency or a timeout marker.

        Timeouts report ``latency_ms`` equal to the deadline (the paper
        terminates the plan and labels it a timeout).
        """
        state = _ExecState(
            timeout_ms=timeout_ms,
            units_per_ms=self.cost_model.params.work_units_per_ms,
        )
        # Row ids the final aggregation reads; COUNT needs none.
        needed = frozenset(
            aggregate.column.alias
            for aggregate in query.aggregates
            if aggregate.function != "COUNT" and aggregate.column is not None
        )
        try:
            result = self._run(query, plan, state, needed)
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

    # ------------------------------------------------------------------
    # operators
    # ------------------------------------------------------------------
    def _run(
        self,
        query: Query,
        plan: Plan,
        state: "_ExecState",
        needed: FrozenSet[str],
    ) -> _Groups:
        """Execute ``plan``; the result keeps id columns for ``needed`` aliases only.

        Join ``k`` is counted and charged, then the scan of join ``k + 1``'s
        right input runs, then join ``k``'s output is built, keeping the ids
        the final aggregation and every join above read.  An output larger
        than its inputs is built only once the operator above is known not
        to time out on it (:meth:`_look_ahead`); a smaller one costs less to
        build than to look ahead over.
        """
        joins = [
            Join(*join)
            for join in zip(plan.methods, plan.aliases[1:], plan.tables[1:], plan.predicates)
        ]
        keeps = [needed]
        for join in reversed(joins[1:]):
            keeps.append(keeps[-1].union(*(p.aliases() for p in join.predicates)) - {join.alias})
        keeps.reverse()
        result = self._scan_leaf(plan, 0, state)
        right = self._scan_leaf(plan, 1, state) if joins else None
        for k, join in enumerate(joins):
            ranks, matches, out_count = self._join(query, join, result, right, state)
            above = above_right = None
            if k + 1 < len(joins):
                above, above_right = joins[k + 1], self._scan_leaf(plan, k + 2, state)
            if out_count > len(result.weight) + right.count:
                self._look_ahead(
                    query, join, result, right, ranks, matches, out_count, state, above, above_right
                )
            result = self._emit(result, right, join.alias, ranks, matches, out_count, keeps[k])
            right = above_right
        return result

    def _scan_leaf(self, plan: Plan, i: int, state: "_ExecState") -> _Groups:
        return self._scan(
            plan.aliases[i], plan.tables[i], plan.scan_types[i], plan.index_columns[i],
            plan.filters[i], state,
        )

    def _scan(
        self,
        alias: str,
        table_name: str,
        scan_type: str,
        index_column: Optional[str],
        filters: Sequence[FilterPredicate],
        state: "_ExecState",
    ) -> _Groups:
        table = self.storage.table(table_name)
        base_rows = table.num_rows
        if scan_type == "index":
            row_ids = self._index_access(table_name, index_column, filters)
            fetched = len(row_ids)
            residual = [f for f in filters if f.column.column != index_column]
            for predicate in residual:
                row_ids = row_ids[self._apply_filter(table.gather(predicate.column.column, row_ids), predicate)]
            state.charge(self.cost_model.index_scan(base_rows, fetched, len(residual)))
        else:
            mask = np.ones(base_rows, dtype=bool)
            for predicate in filters:
                mask &= self._apply_filter(table.column(predicate.column.column), predicate)
            row_ids = np.flatnonzero(mask)
            state.charge(self.cost_model.seq_scan(base_rows, len(filters)))
        return _Groups(
            ids={alias: row_ids.astype(np.int64, copy=False)},
            weight=np.ones(len(row_ids), dtype=np.int64),
            count=len(row_ids),
        )

    def _index_access(
        self, table_name: str, index_column: str, filters: Sequence[FilterPredicate]
    ) -> np.ndarray:
        index = self.storage.index(table_name, index_column)
        driving = next(f for f in filters if f.column.column == index_column)
        if driving.op == "=":
            return index.lookup_eq(driving.value)
        if driving.op == "IN":
            return index.lookup_in(np.asarray(driving.values))
        if driving.op == "BETWEEN":
            low, high = driving.values
            return index.lookup_range(low, high)
        if driving.op in ("<", "<="):
            return index.lookup_range(None, driving.value, high_inclusive=driving.op == "<=")
        if driving.op in (">", ">="):
            return index.lookup_range(driving.value, None, low_inclusive=driving.op == ">=")
        raise ValueError(f"index scan cannot serve op {driving.op!r}")

    @staticmethod
    def _apply_filter(values: np.ndarray, predicate: FilterPredicate) -> np.ndarray:
        op = predicate.op
        if op == "=":
            return values == predicate.value
        if op == "<>":
            return values != predicate.value
        if op == "<":
            return values < predicate.value
        if op == "<=":
            return values <= predicate.value
        if op == ">":
            return values > predicate.value
        if op == ">=":
            return values >= predicate.value
        if op == "IN":
            return np.isin(values, np.asarray(predicate.values))
        if op == "BETWEEN":
            low, high = predicate.values
            return (values >= low) & (values <= high)
        raise ValueError(f"unsupported op {op!r}")

    def _join(
        self, query: Query, node: Join, left: _Groups, right: _Groups, state: "_ExecState"
    ) -> Tuple[Ranks, np.ndarray, int]:
        """Count and charge one join: its ranks, matches and output count."""
        if not node.predicates:
            out_count = self._check_cross(left.count, right.count, state)
            # Every entry has rank 0: each group matches every scanned row.
            ranks = (
                np.zeros(len(left.weight), dtype=np.int64),
                np.zeros(right.count, dtype=np.int64),
                np.array([right.count], dtype=np.int64),
            )
            return ranks, match_counts(ranks), out_count
        right_alias = node.alias

        def key_columns():
            """Each predicate's left table column, left row ids and right key values."""
            for predicate in node.predicates:
                left_ref, right_ref = predicate.left, predicate.right
                if left_ref.alias == right_alias:
                    left_ref, right_ref = right_ref, left_ref
                left_table = self.storage.table(query.tables[left_ref.alias])
                yield (
                    left_table.column(left_ref.column),
                    self._gather(query, right, right_alias, right_ref.column),
                    left.ids[left_ref.alias],
                )

        keys = key_columns()
        ranks = rank_keys(*next(keys))
        matches = match_counts(ranks)
        out_count = int(left.weight @ matches)
        self._check_output(node, left.count, right, out_count, state)

        # Every further predicate is part of the key, not a filter over pairs.
        if len(node.predicates) > 1:
            for left_keys, right_keys, left_rows in keys:
                ranks = refine_keys(ranks, left_keys, right_keys, left_rows)
            matches = match_counts(ranks)
            out_count = int(left.weight @ matches)

        self._charge_join(node, left.count, right.count, out_count, state)
        return ranks, matches, out_count

    def _check_output(
        self,
        node: Join,
        left_count: int,
        right: _Groups,
        out_count: int,
        state: "_ExecState",
    ) -> None:
        """Never join more rows than the materialization cap, or than the
        remaining virtual budget could pay for: the timeout would fire anyway,
        so charge the join and abort first.  Judged on the driving predicate
        alone.  With no deadline, only the cap bounds a join."""
        limit = MAX_JOIN_OUTPUT
        if state.timeout_ms is not None:
            affordable = int(state.remaining_units() / self.cost_model.params.output_tuple) + 1
            limit = min(limit, affordable)
        if out_count > limit:
            self._charge_join(node, left_count, right.count, out_count, state)
            raise TimeoutExceeded(self.cost_model.to_milliseconds(state.work))

    def _check_cross(self, left_count: int, right_count: int, state: "_ExecState") -> int:
        """Charge a cross join before building it (they are usually
        catastrophic) and refuse one over the cap; returns its output count."""
        out_count = left_count * right_count
        state.charge(self.cost_model.nested_loop(left_count, right_count, out_count))
        if out_count > MAX_JOIN_OUTPUT:
            raise TimeoutExceeded(self.cost_model.to_milliseconds(state.work))
        return out_count

    def _look_ahead(
        self,
        query: Query,
        node: Join,
        left: _Groups,
        right: _Groups,
        ranks: Ranks,
        matches: np.ndarray,
        out_count: int,
        state: "_ExecState",
        above: Optional[Join],
        above_right: Optional[_Groups],
    ) -> None:
        """Run the first checks of ``above`` (the final aggregation at the
        root) over ``node``'s unbuilt output, on a copy of ``state``.  If one
        times out, keep what it charged and raise: the same work and the same
        point as running ``above`` on the built output, since the checks are
        the operator's own code on the same integers."""
        trial = replace(state)
        try:
            if above is None:
                trial.charge(self.cost_model.aggregate(out_count))
            elif not above.predicates:
                self._check_cross(out_count, above_right.count, trial)
            else:
                count = self._driving_count(
                    query, node, left, right, ranks, matches, above, above_right
                )
                self._check_output(above, out_count, above_right, count, trial)
                if len(above.predicates) == 1:  # then ``count`` is its output: charge it too
                    self._charge_join(above, out_count, above_right.count, count, trial)
        except TimeoutExceeded:
            state.work = trial.work
            raise

    def _driving_count(
        self,
        query: Query,
        node: Join,
        left: _Groups,
        right: _Groups,
        ranks: Ranks,
        matches: np.ndarray,
        above: Join,
        above_right: _Groups,
    ) -> int:
        """Output rows of ``above``'s driving predicate over ``node``'s unbuilt
        output, counted on its two factors: a key read from ``node``'s scanned
        alias counts each scanned row as the summed weight of its rank's
        groups, one read from a left alias counts a group ``weight x matches``
        times."""
        predicate = above.predicates[0]
        key, above_key = predicate.left, predicate.right
        if key.alias == above.alias:
            key, above_key = above_key, key
        if key.alias == node.alias:
            weight = _rank_weights(left.weight, ranks).astype(np.int64)
            rows = right.ids[key.alias]
        else:
            weight = left.weight * matches
            rows = left.ids[key.alias]
        above_ranks = rank_keys(
            self.storage.table(query.tables[key.alias]).column(key.column),
            self._gather(query, above_right, above.alias, above_key.column),
            rows,
        )
        return int(weight @ match_counts(above_ranks))

    @staticmethod
    def _emit(
        left: _Groups,
        right: _Groups,
        right_alias: str,
        ranks: Ranks,
        matches: np.ndarray,
        out_count: int,
        needed: FrozenSet[str],
    ) -> _Groups:
        """The join's output groups: ``needed`` id columns, weights summing to ``out_count``."""
        if not needed:
            # Nothing above reads a row id: the count is the whole result.
            weight = np.array([out_count] if out_count else [], dtype=np.int64)
            return _Groups(ids={}, weight=weight, count=out_count)
        if needed == {right_alias}:
            # Only the scanned rows are read later: each stands for the summed
            # weight of the groups of its rank.  No pair is enumerated.
            weight = _rank_weights(left.weight, ranks)
            ids = {right_alias: right.ids[right_alias]}
        elif right_alias in needed:
            # The scanned rows are read later: one entry per (group, row)
            # pair, a group's pairs side by side.
            weight = np.repeat(left.weight, matches)
            ids = {right_alias: right.ids[right_alias][pair_rows(ranks, matches)]}
            ids.update((alias, np.repeat(left.ids[alias], matches)) for alias in needed - {right_alias})
        else:
            # No pair is enumerated: a surviving group stands for more rows.
            group = np.flatnonzero(matches)
            weight = left.weight[group] * matches[group]
            ids = {alias: left.ids[alias][group] for alias in needed}
        if len(ids) == 1 and (right_alias in needed or len(left.ids) > 1):
            # One id column left: merge equal ids.  ``bincount`` sums in
            # float64, here and per rank above; exact, because every partial
            # sum is an integer <= ``left.count`` or ``out_count``, and neither
            # exceeds MAX_JOIN_OUTPUT (far below 2**53).
            ((alias, column),) = ids.items()
            summed = np.bincount(column, weights=weight)
            merged = np.flatnonzero(summed)
            ids, weight = {alias: merged}, summed[merged].astype(np.int64)
        return _Groups(ids=ids, weight=weight, count=out_count)

    def _charge_join(
        self,
        node: Join,
        left_count: int,
        right_count: int,
        out_count: int,
        state: "_ExecState",
    ) -> None:
        """Charge the join's true-cardinality cost (same formulas as the optimizer)."""
        if node.method == "hash":
            build, probe = (right_count, left_count) if right_count <= left_count else (left_count, right_count)
            cost = self.cost_model.hash_join(build, probe, out_count)
        elif node.method == "merge":
            cost = self.cost_model.merge_join(left_count, right_count, out_count)
        else:  # nestloop
            index_col = self._nl_index_column(node)
            if index_col is not None:
                base = self.storage.table(node.table).num_rows
                cost = self.cost_model.index_nested_loop(left_count, base, out_count)
                plain = self.cost_model.nested_loop(left_count, right_count, out_count)
                cost = min(cost, plain)
            else:
                cost = self.cost_model.nested_loop(left_count, right_count, out_count)
        state.charge(cost)

    def _nl_index_column(self, node: Join) -> Optional[str]:
        for predicate in node.predicates:
            for ref in (predicate.left, predicate.right):
                if ref.alias == node.alias and self.storage.has_index(node.table, ref.column):
                    return ref.column
        return None

    # ------------------------------------------------------------------
    def _gather(self, query: Query, groups: _Groups, alias: str, column: str) -> np.ndarray:
        """Column values for ``alias``, one per group."""
        table = self.storage.table(query.tables[alias])
        return table.gather(column, groups.ids[alias])

    def _aggregate(self, query: Query, result: _Groups) -> Tuple[float, ...]:
        """Aggregates over the groups: a group's value counts ``weight`` times."""
        values = []
        for aggregate in query.aggregates:
            if aggregate.function == "COUNT" or result.count == 0:
                values.append(float(result.count) if aggregate.function == "COUNT" else 0.0)
                continue
            column = self._gather(query, result, aggregate.column.alias, aggregate.column.column)
            if aggregate.function == "SUM":
                values.append(float(result.weight @ column))
            elif aggregate.function == "MIN":
                values.append(float(column.min()))
            elif aggregate.function == "MAX":
                values.append(float(column.max()))
            elif aggregate.function == "AVG":
                values.append(float(result.weight @ column) / result.count)
            else:
                raise ValueError(f"unsupported aggregate {aggregate.function}")
        return tuple(values)


def _rank_weights(weight: np.ndarray, ranks: Ranks) -> np.ndarray:
    """Per scanned entry, the summed ``weight`` of the groups of its rank
    (float64, holding exact integers no larger than ``weight``'s total; rank
    -1 lands in bin 0 and is dropped)."""
    left_rank, right_rank, counts = ranks
    return np.bincount(left_rank + 1, weights=weight, minlength=len(counts) + 1)[1:][right_rank]


@dataclass
class _ExecState:
    """Accumulated work units and the timeout deadline."""

    timeout_ms: Optional[float] = None
    units_per_ms: float = 20_000.0
    work: float = 0.0
    _deadline_units: float = field(init=False, default=float("inf"))

    def __post_init__(self) -> None:
        if self.timeout_ms is not None:
            self._deadline_units = self.timeout_ms * self.units_per_ms

    def charge(self, units: float) -> None:
        self.work += units
        if self.work > self._deadline_units:
            raise TimeoutExceeded(self.work / self.units_per_ms)

    def remaining_units(self) -> float:
        return max(0.0, self._deadline_units - self.work)
