"""Executor and engine-facade tests: correctness, virtual time, timeouts."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_dp import joins_between
from reference_executor import JoinOverflow, ReferenceExecutionEngine, join_pairs
from repro.engine.database import HARD_CAP_MS
from repro.executor import engine as engine_module
from repro.executor.engine import ExecutionEngine
from repro.executor.joins import expand_pairs, match_counts, rank_keys, refine_keys
from repro.optimizer.plans import JOIN_METHODS, JoinNode, ScanNode, plan_aliases, plan_join_methods
from repro.sql.ast import Aggregate, ColumnRef, FilterPredicate, JoinPredicate, Query
from repro.storage.database import StorageDatabase
from repro.storage.table import Table


@pytest.fixture(scope="module")
def db(request):
    return request.getfixturevalue("job_workload").database


def _pairs(left, right):
    """The counting primitives' pairs, as a sorted list of (left index, right index)."""
    li, ri = expand_pairs(rank_keys(np.asarray(left), np.asarray(right)))
    return sorted(zip(li.tolist(), ri.tolist()))


class TestJoinPairs:
    """``rank_keys`` / ``match_counts`` / ``expand_pairs`` against brute force and
    against the ``join_pairs`` they replaced (kept in ``reference_executor``)."""

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        left = rng.integers(0, 10, size=50)
        right = rng.integers(0, 10, size=40)
        expected = sorted((i, j) for i in range(50) for j in range(40) if left[i] == right[j])
        assert _pairs(left, right) == expected
        li, ri = join_pairs(left, right)
        assert sorted(zip(li.tolist(), ri.tolist())) == expected

    def test_empty_inputs(self):
        empty = np.array([], dtype=np.int64)
        for left, right in ((empty, np.array([1, 2])), (np.array([1, 2]), empty), (empty, empty)):
            assert match_counts(rank_keys(left, right)).tolist() == [0] * len(left)
            assert _pairs(left, right) == []
            li, ri = join_pairs(left, right)
            assert len(li) == 0 and len(ri) == 0

    def test_no_matches(self):
        ranks = rank_keys(np.array([1, 2, 9]), np.array([3, 4]))
        assert ranks[0].tolist() == [-1, -1, -1]
        assert match_counts(ranks).tolist() == [0, 0, 0]
        assert _pairs([1, 2, 9], [3, 4]) == []
        assert len(join_pairs(np.array([1, 2]), np.array([3, 4]))[0]) == 0

    def test_overflow_raises_before_materializing(self):
        """10^8 matches are counted without a pair existing; the old primitive
        refused them with the same count."""
        left = np.zeros(10_000, dtype=np.int64)
        right = np.zeros(10_000, dtype=np.int64)
        assert int(match_counts(rank_keys(left, right)).sum()) == 100_000_000
        with pytest.raises(JoinOverflow) as overflow:
            join_pairs(left, right, max_output=1000)
        assert overflow.value.count == 100_000_000

    def test_count_matches_pairs(self):
        rng = np.random.default_rng(1)
        left = rng.integers(0, 5, size=30)
        right = rng.integers(0, 5, size=30)
        li, _ = join_pairs(left, right)
        assert int(match_counts(rank_keys(left, right)).sum()) == len(li) == len(_pairs(left, right))


@settings(max_examples=30, deadline=None)
@given(
    left=st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=40),
    right=st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=40),
)
def test_join_pairs_property(left, right):
    left_arr, right_arr = np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)
    ranks = rank_keys(left_arr, right_arr)
    li, ri = expand_pairs(ranks)
    assert len(li) == len(ri)
    if len(li):
        np.testing.assert_array_equal(left_arr[li], right_arr[ri])
    # Exhaustive count check, per left entry and in total.
    per_left = [sum(1 for b in right if a == b) for a in left]
    assert match_counts(ranks).tolist() == per_left
    assert len(li) == sum(per_left)
    # The same pairs as the primitive this one replaced.
    old_li, old_ri = join_pairs(left_arr, right_arr)
    assert sorted(zip(li.tolist(), ri.tolist())) == sorted(zip(old_li.tolist(), old_ri.tolist()))


_KEY_COLUMN = st.lists(st.integers(min_value=-2, max_value=3), min_size=0, max_size=24)


@settings(max_examples=40, deadline=None)
@given(columns=st.lists(st.tuples(_KEY_COLUMN, _KEY_COLUMN), min_size=1, max_size=4))
def test_refine_keys_matches_on_every_column(columns):
    """A multi-predicate key: equal rank <=> equal on every column."""
    num_left = min(len(left) for left, _ in columns)
    num_right = min(len(right) for _, right in columns)
    left_cols = [np.array(left[:num_left], dtype=np.int64) for left, _ in columns]
    right_cols = [np.array(right[:num_right], dtype=np.int64) for _, right in columns]
    ranks = rank_keys(left_cols[0], right_cols[0])
    for left, right in zip(left_cols[1:], right_cols[1:]):
        ranks = refine_keys(ranks, left, right)
    expected = sorted(
        (i, j)
        for i in range(num_left)
        for j in range(num_right)
        if all(left[i] == right[j] for left, right in zip(left_cols, right_cols))
    )
    li, ri = expand_pairs(ranks)
    assert sorted(zip(li.tolist(), ri.tolist())) == expected
    assert int(match_counts(ranks).sum()) == len(expected)
    assert ranks[2].sum() == num_right  # every right entry has a rank


@st.composite
def _keys_by_row(draw):
    """One to three key columns, each a table column of <= 5 rows read through
    up to 30 row ids that repeat (more entries than the table has rows), with
    a right key column of one shared length."""
    num_entries = draw(st.integers(min_value=0, max_value=30))
    num_right = draw(st.integers(min_value=0, max_value=12))
    columns = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        table = np.array(draw(st.lists(st.integers(-2, 3), min_size=1, max_size=5)), dtype=np.int64)
        rows = st.lists(st.integers(0, len(table) - 1), min_size=num_entries, max_size=num_entries)
        right = st.lists(st.integers(-2, 3), min_size=num_right, max_size=num_right)
        columns.append((table, np.array(draw(rows), dtype=np.int64), np.array(draw(right), dtype=np.int64)))
    return columns


@settings(max_examples=60, deadline=None)
@given(columns=_keys_by_row())
def test_ranks_by_row_equal_ranks_by_entry(columns):
    """Ranking a table's rows and gathering by row id gives the ranks of the
    entries' own values, through every ``refine_keys``; the pairs are those of
    a pair-enumerating merge on the first column, filtered on the others."""
    (table, rows, right), *rest = columns
    by_row, by_entry = rank_keys(table, right, rows), rank_keys(table[rows], right)
    for table, rows, right in rest:
        by_row = refine_keys(by_row, table, right, rows)
        by_entry = refine_keys(by_entry, table[rows], right)
    for got, want in zip(by_row, by_entry):
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype
    table, rows, right = columns[0]
    li, ri = join_pairs(table[rows], right)
    keep = np.ones(len(li), dtype=bool)
    for table, rows, right in columns[1:]:
        keep &= table[rows][li] == right[ri]
    got_li, got_ri = expand_pairs(by_row)
    assert sorted(zip(got_li.tolist(), got_ri.tolist())) == sorted(zip(li[keep].tolist(), ri[keep].tolist()))


class TestExecutionCorrectness:
    def test_count_star_matches_numpy(self, db):
        query = db.sql("SELECT COUNT(*) FROM title t WHERE t.production_year >= 2000")
        plan = db.plan(query).plan
        result = db.execute(query, plan)
        years = db.storage.table("title").column("production_year")
        assert result.aggregate_values[0] == float((years >= 2000).sum())

    def test_join_count_matches_bruteforce(self, db):
        query = db.sql(
            "SELECT COUNT(*) FROM title t, movie_keyword mk "
            "WHERE mk.movie_id = t.id AND t.kind_id = 1"
        )
        plan = db.plan(query).plan
        result = db.execute(query, plan)
        titles = db.storage.table("title")
        mk = db.storage.table("movie_keyword")
        kind_ok = titles.column("kind_id") == 1
        expected = int(kind_ok[mk.column("movie_id")].sum())
        assert result.output_rows == expected

    def test_all_join_orders_same_count(self, db, job_workload):
        """Result cardinality must be plan-invariant (relational semantics)."""
        query = next(wq.query for wq in job_workload.all_queries if wq.query.num_tables == 4)
        rng = np.random.default_rng(3)
        counts = set()
        for _ in range(5):
            order = list(query.aliases)
            rng.shuffle(order)
            methods = [JOIN_METHODS[int(rng.integers(3))] for _ in range(len(order) - 1)]
            plan = db.plan_with_hints(query, order, methods).plan
            result = db.executor.execute(query, plan, timeout_ms=HARD_CAP_MS)
            if not result.timed_out:  # timed-out runs report no rows
                counts.add(result.output_rows)
        assert len(counts) == 1

    def test_join_method_does_not_change_result(self, db, job_workload):
        query = next(wq.query for wq in job_workload.all_queries if wq.query.num_tables == 4)
        original = db.plan(query).plan
        order = plan_aliases(original)
        counts = set()
        for method in JOIN_METHODS:
            plan = db.plan_with_hints(query, order, [method] * (len(order) - 1)).plan
            counts.add(db.executor.execute(query, plan, timeout_ms=HARD_CAP_MS).output_rows)
        assert len(counts) == 1

    def test_aggregates_sum_min_max(self, db):
        query = db.sql("SELECT COUNT(*), SUM(t.kind_id), MAX(t.kind_id) FROM title t WHERE t.kind_id >= 1")
        result = db.execute(query, db.plan(query).plan)
        kinds = db.storage.table("title").column("kind_id")
        selected = kinds[kinds >= 1]
        assert result.aggregate_values[0] == float(len(selected))
        assert result.aggregate_values[1] == float(selected.sum())
        assert result.aggregate_values[2] == float(selected.max())

    def test_in_and_between_filters(self, db):
        query = db.sql("SELECT COUNT(*) FROM title t WHERE t.kind_id IN (0, 2) AND t.production_year BETWEEN 1950 AND 2000")
        result = db.execute(query, db.plan(query).plan)
        titles = db.storage.table("title")
        kinds = titles.column("kind_id")
        years = titles.column("production_year")
        expected = int((np.isin(kinds, [0, 2]) & (years >= 1950) & (years <= 2000)).sum())
        assert result.aggregate_values[0] == float(expected)

    def test_index_scan_equals_seq_scan(self, db):
        from repro.optimizer.plans import ScanNode

        query = db.sql("SELECT COUNT(*) FROM title t WHERE t.id = 5")
        plan = db.plan(query).plan
        assert isinstance(plan, ScanNode)
        result = db.execute(query, plan)
        seq_plan = ScanNode(alias="t", table="title", scan_type="seq", filters=plan.filters)
        seq_result = db.executor.execute(query, seq_plan, timeout_ms=HARD_CAP_MS)
        assert result.output_rows == seq_result.output_rows == 1


class TestVirtualTime:
    def test_deterministic_latency(self, db, job_workload):
        query = job_workload.all_queries[0].query
        plan = db.plan(query).plan
        a = db.executor.execute(query, plan, timeout_ms=HARD_CAP_MS).latency_ms
        b = db.executor.execute(query, plan, timeout_ms=HARD_CAP_MS).latency_ms
        assert a == b

    def test_latency_positive(self, db, job_workload):
        query = job_workload.all_queries[0].query
        result = db.execute(query, db.plan(query).plan)
        assert result.latency_ms > 0

    def test_timeout_truncates(self, db, job_workload):
        query = next(wq.query for wq in job_workload.all_queries if wq.query.num_tables >= 5)
        plan = db.plan(query).plan
        full = db.execute(query, plan).latency_ms
        tiny_timeout = full / 10.0
        result = db.execute(query, plan, timeout_ms=tiny_timeout)
        assert result.timed_out
        assert result.latency_ms == pytest.approx(tiny_timeout)

    def test_timeout_noop_when_fast_enough(self, db, job_workload):
        query = job_workload.all_queries[0].query
        plan = db.plan(query).plan
        full = db.execute(query, plan).latency_ms
        result = db.execute(query, plan, timeout_ms=full * 10)
        assert not result.timed_out
        assert result.latency_ms == pytest.approx(full)

    def test_cache_hit_does_not_reexecute(self, db, job_workload):
        query = job_workload.all_queries[1].query
        plan = db.plan(query).plan
        db.execute(query, plan)
        before = db.executions
        db.execute(query, plan)
        assert db.executions == before

    def test_cache_upgrade_on_higher_cap(self, db, job_workload):
        """A plan capped at a low timeout re-executes under a higher one."""
        query = next(wq.query for wq in job_workload.all_queries if wq.query.num_tables >= 5)
        plan = db.plan(query).plan
        full = db.executor.execute(query, plan, timeout_ms=HARD_CAP_MS).latency_ms
        db.clear_caches()
        low = db.execute(query, plan, timeout_ms=full / 10)
        assert low.timed_out
        high = db.execute(query, plan, timeout_ms=full * 10)
        assert not high.timed_out
        assert high.latency_ms == pytest.approx(full)


class TestEngineFacade:
    def test_plan_cache(self, db, job_workload):
        query = job_workload.all_queries[2].query
        first = db.plan(query)
        second = db.plan(query)
        assert first is second

    def test_original_latency_consistent(self, db, job_workload):
        query = job_workload.all_queries[0].query
        a = db.original_latency(query)
        b = db.execute(query, db.plan(query).plan).latency_ms
        assert a == b

    def test_explain_contains_tables(self, db, job_workload):
        wq = job_workload.all_queries[0]
        text = db.explain(db.plan(wq.query).plan)
        for table in wq.query.tables.values():
            assert table in text


# ----------------------------------------------------------------------
# The counting engine against the row-enumerating engine it replaced
# ----------------------------------------------------------------------
_AGGREGATE_FUNCTIONS = ("SUM", "MIN", "MAX", "AVG")


def _with_aggregates(query, column):
    """``query`` as ``COUNT(*), SUM, MIN, MAX, AVG`` over ``column``."""
    aggregates = [Aggregate("COUNT")] + [Aggregate(f, column) for f in _AGGREGATE_FUNCTIONS]
    return replace(query, aggregates=aggregates)


def _doctor_like_plans(database, query, rng):
    """The expert's plan, a 1-3 step swap / override edit of it, and a full
    shuffle with random operators (which brings cross joins)."""
    expert = database.plan(query).plan
    order, methods = plan_aliases(expert), plan_join_methods(expert)
    edited_order, edited_methods = list(order), list(methods)
    for _ in range(int(rng.integers(1, 4))):
        if rng.random() < 0.5:
            i, j = rng.choice(len(order), size=2, replace=False)
            edited_order[i], edited_order[j] = edited_order[j], edited_order[i]
        else:
            edited_methods[int(rng.integers(len(methods)))] = JOIN_METHODS[int(rng.integers(3))]
    shuffled = list(order)
    rng.shuffle(shuffled)
    random_methods = [JOIN_METHODS[int(rng.integers(3))] for _ in methods]
    space = database.enumerator.join_space(query)  # fresh: leaves the shared fixture's caches alone
    return [
        expert,
        space.complete(edited_order, edited_methods),
        space.complete(shuffled, random_methods),
    ]


class TestDifferentialAgainstReference:
    """Bitwise contract: every ``ExecutionResult`` field equals the reference
    executor's with ``==``, timeouts and ``work_units`` included.

    Every stored column of the three workloads is int64 (ids, keys, dictionary
    codes), so the aggregate variant is exact too: an integer ``SUM`` does not
    depend on row order and an integer ``AVG`` is that sum over the count,
    which equals ``np.mean`` bitwise below 2**53.  Float columns are covered by
    the tiny-table property test, to ``rtol=1e-12``.
    """

    # Every STRIDE-th query; sized to keep this class under ~15 s of tier-1.
    STRIDE = 8

    @pytest.mark.parametrize("name", ["job", "stack", "tpcds"])
    def test_workload_plans_equal_reference(self, name, request):
        workload = request.getfixturevalue(f"{name}_workload")
        database = workload.database
        engine = database.executor
        reference = ReferenceExecutionEngine(database.storage, engine.cost_model)
        rng = np.random.default_rng(21)
        compared = timed_out = 0
        for item in workload.all_queries[:: self.STRIDE]:
            query = item.query
            key_column = query.join_predicates[0].left
            plans = _doctor_like_plans(database, query, rng)
            expert_ms = engine.execute(query, plans[0], timeout_ms=HARD_CAP_MS).latency_ms
            for variant in (query, _with_aggregates(query, key_column)):
                for plan in plans:
                    for timeout_ms in (HARD_CAP_MS, 1.5 * expert_ms):
                        got = engine.execute(variant, plan, timeout_ms=timeout_ms)
                        want = reference.execute(variant, plan, timeout_ms=timeout_ms)
                        assert got == want, (query.name, plan_aliases(plan), timeout_ms)
                        compared += 1
                        timed_out += got.timed_out
        # Both outcomes must be drawn, or the contract is half checked.
        assert 0 < timed_out < compared


@pytest.mark.parametrize("name", ["job", "stack", "tpcds"])
def test_no_deadline_equals_reference_and_hard_cap(name, request):
    """``timeout_ms=None``, the documented default: only ``MAX_JOIN_OUTPUT``
    bounds a join, and a run the hard cap lets finish reads the same."""
    workload = request.getfixturevalue(f"{name}_workload")
    database = workload.database
    engine = database.executor
    reference = ReferenceExecutionEngine(database.storage, engine.cost_model)
    for item in workload.all_queries[:: TestDifferentialAgainstReference.STRIDE]:
        query = item.query
        plan = database.plan(query).plan
        got = engine.execute(query, plan)
        assert got == reference.execute(query, plan), query.name
        capped = engine.execute(query, plan, timeout_ms=HARD_CAP_MS)
        if not capped.timed_out:
            assert got == capped, query.name


class _BuildingEngine(ExecutionEngine):
    """The counting engine without its lookahead: it builds every output it
    counts and charges, as the engine did before the lookahead."""

    def _look_ahead(self, *args):
        pass


@pytest.mark.parametrize("name", ["job", "stack"])
def test_doomed_plans_build_nothing_they_will_not_read(name, request, monkeypatch):
    """A timed-out run builds no join output larger than its two inputs for an
    operator that then times out on it.

    :class:`_BuildingEngine` finds that operator: the last output it builds
    is read by the join above (the final aggregation at the root), unless a
    scan times out after it.  A join above with several predicates is counted
    ahead on its driving predicate only, so its final charge can still find a
    built output; those runs are not held to this.
    """
    workload = request.getfixturevalue(f"{name}_workload")
    database = workload.database
    engine = database.executor
    building = _BuildingEngine(database.storage, engine.cost_model)
    events = []  # (scanned alias of an emitted join, output grew past its inputs); (None, False): a scan timed out
    emit, scan = ExecutionEngine._emit, ExecutionEngine._scan

    def spy_emit(left, right, right_alias, ranks, matches, out_count, needed):
        output = emit(left, right, right_alias, ranks, matches, out_count, needed)
        events.append((right_alias, len(output.weight) > len(left.weight) + right.count))
        return output

    def spy_scan(self, node, state):
        try:
            return scan(self, node, state)
        except engine_module.TimeoutExceeded:
            events.append((None, False))
            raise

    monkeypatch.setattr(ExecutionEngine, "_emit", staticmethod(spy_emit))
    monkeypatch.setattr(ExecutionEngine, "_scan", spy_scan)
    rng = np.random.default_rng(21)
    doomed = 0
    for item in workload.all_queries[::2]:
        query = item.query
        plans = _doctor_like_plans(database, query, rng)
        expert_ms = engine.execute(query, plans[0], timeout_ms=HARD_CAP_MS).latency_ms
        for plan in plans:
            for timeout_ms in (HARD_CAP_MS, 1.5 * expert_ms):
                events.clear()
                if not engine.execute(query, plan, timeout_ms=timeout_ms).timed_out:
                    continue
                grown = {alias for alias, grew in events if grew}
                events.clear()
                assert building.execute(query, plan, timeout_ms=timeout_ms).timed_out
                if not events or events[-1][0] is None:
                    continue
                alias, grew = events[-1]
                node, above = plan, None
                while node.right.alias != alias:
                    node, above = node.left, node
                if above is not None and len(above.predicates) > 1:
                    continue
                doomed += grew
                assert alias not in grown, (query.name, plan_aliases(plan), timeout_ms)
    assert doomed > 0


# ----------------------------------------------------------------------
# Property test: tiny tables, every join order, brute force as ground truth
# ----------------------------------------------------------------------
_TINY_COLUMNS = ("k", "j", "v")  # duplicate-heavy integer columns; "x" is the float one
# hypothesis favours the first entries of ``sampled_from``: lead with the busy cases
_TINY_ROWS = (12, 8, 5, 10, 3, 6, 2, 9, 1, 4, 7, 11, 0)  # rows per table
_TINY_PREDICATES = (3, 2, 1, 4, 0, 5, 6)  # join predicates per query


@st.composite
def _tiny_case(draw):
    """3-4 tables of <= 12 rows (now and then an empty one), up to two equality
    predicates per table on random table pairs (so joins carry 0, 1 or several
    predicates: cross joins and composite keys both occur), optional filters."""
    num_tables = draw(st.integers(min_value=3, max_value=4))
    aliases = [f"t{i}" for i in range(num_tables)]
    tables = {}
    for alias in aliases:
        rows = draw(st.sampled_from(_TINY_ROWS))
        tables[alias] = {}
        for column, high in zip(_TINY_COLUMNS, (1, 2, 3)):
            values = st.lists(st.integers(min_value=0, max_value=high), min_size=rows, max_size=rows)
            tables[alias][column] = np.array(draw(values), dtype=np.int64)
        floats = st.lists(st.integers(min_value=1, max_value=1000), min_size=rows, max_size=rows)
        tables[alias]["x"] = np.array(draw(floats), dtype=np.float64) / 7.0
    predicates = []
    pairs = list(itertools.combinations(aliases, 2))
    for _ in range(draw(st.sampled_from(_TINY_PREDICATES))):
        a, b = draw(st.sampled_from(pairs))
        left = ColumnRef(a, draw(st.sampled_from(_TINY_COLUMNS)))
        right = ColumnRef(b, draw(st.sampled_from(_TINY_COLUMNS)))
        # either side may be written first, as in real queries
        predicates.append(JoinPredicate(*draw(st.permutations([left, right]))))
    filters = []
    for alias in aliases:
        if draw(st.integers(min_value=0, max_value=3)):
            continue
        op = draw(st.sampled_from(["=", ">=", "<>"]))
        filters.append(FilterPredicate(ColumnRef(alias, "k"), op, (draw(st.integers(0, 1)),)))
    measured = draw(st.sampled_from(aliases))
    methods = draw(st.lists(st.sampled_from(JOIN_METHODS), min_size=num_tables - 1, max_size=num_tables - 1))
    return tables, predicates, filters, measured, methods


def _tiny_setup(case):
    tables, predicates, filters, measured, methods = case
    storage = StorageDatabase()
    for alias, arrays in tables.items():
        storage.add_table(Table.from_arrays(alias, arrays))
        storage.declare_index(alias, "k")
    aggregates = [Aggregate("COUNT")]
    aggregates += [Aggregate(f, ColumnRef(measured, "v")) for f in _AGGREGATE_FUNCTIONS]
    aggregates += [Aggregate(f, ColumnRef(measured, "x")) for f in _AGGREGATE_FUNCTIONS]
    query = Query(
        tables={alias: alias for alias in tables},
        join_predicates=predicates,
        filters=filters,
        aggregates=aggregates,
        name="tiny",
    )
    return storage, query, methods


def _tiny_plan(query, order, methods):
    """The left-deep plan for ``order``: a join carries every predicate between
    its scanned alias and the aliases below it; '=' filters on ``k`` use the index."""
    def scan(alias):
        filters = tuple(query.filters_for(alias))
        if filters and filters[0].op == "=":
            return ScanNode(alias=alias, table=alias, scan_type="index", index_column="k", filters=filters)
        return ScanNode(alias=alias, table=alias, filters=filters)

    plan = scan(order[0])
    for position, (alias, method) in enumerate(zip(order[1:], methods), start=1):
        predicates = tuple(joins_between(query, order[:position], [alias]))
        plan = JoinNode(left=plan, right=scan(alias), method=method, predicates=predicates)
    return plan


def _brute_force(case):
    """``(count, aggregate values)`` by a Python nested loop over every row combination."""
    tables, predicates, filters, measured, _ = case
    ops = {"=": lambda a, b: a == b, ">=": lambda a, b: a >= b, "<>": lambda a, b: a != b}
    survivors = []
    for alias, arrays in tables.items():
        rows = range(len(arrays["k"]))
        for f in filters:
            if f.column.alias == alias:
                rows = [r for r in rows if ops[f.op](arrays[f.column.column][r], f.value)]
        survivors.append(list(rows))
    aliases = list(tables)
    ints, floats = [], []
    for combo in itertools.product(*survivors):
        row = dict(zip(aliases, combo))
        if all(
            tables[p.left.alias][p.left.column][row[p.left.alias]]
            == tables[p.right.alias][p.right.column][row[p.right.alias]]
            for p in predicates
        ):
            ints.append(int(tables[measured]["v"][row[measured]]))
            floats.append(float(tables[measured]["x"][row[measured]]))
    count = len(ints)
    if count == 0:
        return 0, (0.0,) * 9
    values = (float(count), float(sum(ints)), float(min(ints)), float(max(ints)), sum(ints) / count)
    values += (float(np.sum(floats)), min(floats), max(floats), float(np.mean(floats)))
    return count, values


# Positions in ``aggregate_values`` of the float column's SUM and AVG: compared
# to rtol=1e-12 (accumulation order differs); everything else with ==.
_FLOAT_SUM, _FLOAT_AVG = 5, 8


def _assert_same_result(got, want):
    assert (got.latency_ms, got.output_rows, got.timed_out, got.work_units) == (
        want.latency_ms,
        want.output_rows,
        want.timed_out,
        want.work_units,
    )
    _assert_same_aggregates(got.aggregate_values, want.aggregate_values)


def _assert_same_aggregates(got, want):
    assert len(got) == len(want)
    for position, (a, b) in enumerate(zip(got, want)):
        if position in (_FLOAT_SUM, _FLOAT_AVG):
            assert a == pytest.approx(b, rel=1e-12, abs=0.0)
        else:
            assert a == b


def _check_every_order(case, max_join_output=None, timeout_share=None):
    """Every permutation of the join order through both engines."""
    storage, query, methods = _tiny_setup(case)
    engine = ExecutionEngine(storage)
    reference = ReferenceExecutionEngine(storage, engine.cost_model)
    count, values = _brute_force(case)
    timeout_ms = HARD_CAP_MS
    if timeout_share is not None:
        first = _tiny_plan(query, query.aliases, methods)
        timeout_ms = timeout_share * engine.execute(query, first, timeout_ms=HARD_CAP_MS).latency_ms
    saved = engine_module.MAX_JOIN_OUTPUT
    if max_join_output is not None:
        engine_module.MAX_JOIN_OUTPUT = max_join_output
    try:
        for order in itertools.permutations(query.aliases):
            plan = _tiny_plan(query, list(order), methods)
            got = engine.execute(query, plan, timeout_ms=timeout_ms)
            _assert_same_result(got, reference.execute(query, plan, timeout_ms=timeout_ms))
            if got.timed_out:
                assert max_join_output is not None or timeout_share is not None
            else:
                assert got.output_rows == count
                _assert_same_aggregates(got.aggregate_values, values)
    finally:
        engine_module.MAX_JOIN_OUTPUT = saved


@settings(max_examples=60, deadline=None)
@given(case=_tiny_case())
def test_tiny_tables_every_join_order(case):
    _check_every_order(case)


@settings(max_examples=40, deadline=None)
@given(case=_tiny_case(), cap=st.integers(min_value=1, max_value=60))
def test_tiny_tables_small_materialization_cap(case, cap):
    """``MAX_JOIN_OUTPUT`` small enough that joins and cross joins hit it."""
    _check_every_order(case, max_join_output=cap)


@settings(max_examples=40, deadline=None)
@given(case=_tiny_case(), share=st.floats(min_value=0.7, max_value=3.0))
def test_tiny_tables_tight_timeout(case, share):
    """A deadline near one plan's latency: the ``affordable`` check and
    mid-plan charges time other orders out at the same point."""
    _check_every_order(case, timeout_share=share)


# ----------------------------------------------------------------------
# Group sets longer than their tables, and joins only the scanned alias leaves
# ----------------------------------------------------------------------
@st.composite
def _fanout_case(draw):
    """Four tables joined a-b, a-c, c-d, and now and then b-c too.  ``a`` has
    1-3 rows, so the (a, b) groups below ``c`` repeat a's row ids more often
    than ``a`` has rows, and ``c`` joins on one key or two.  With b-c absent
    the groups reaching ``c`` carry only ``a`` and weigh the ``b`` rows each
    stands for; when the aggregates measure ``c`` or ``d``, ``c`` is the only
    alias read above its join."""
    tables = {}
    for alias, most in (("a", 3), ("b", 8), ("c", 8), ("d", 8)):
        rows = draw(st.integers(min_value=1 if alias == "a" else 0, max_value=most))
        tables[alias] = {}
        for column, high in zip(_TINY_COLUMNS, (1, 1, 2)):
            values = st.lists(st.integers(min_value=0, max_value=high), min_size=rows, max_size=rows)
            tables[alias][column] = np.array(draw(values), dtype=np.int64)
        floats = st.lists(st.integers(min_value=1, max_value=1000), min_size=rows, max_size=rows)
        tables[alias]["x"] = np.array(draw(floats), dtype=np.float64) / 7.0
    links = [("a", "k", "b", "k"), ("a", "j", "c", "j"), ("c", "k", "d", "k")]
    if draw(st.booleans()):
        links.append(("b", "v", "c", "v"))
    predicates = [JoinPredicate(ColumnRef(a, x), ColumnRef(b, y)) for a, x, b, y in links]
    measured = draw(st.sampled_from(sorted(tables)))
    methods = draw(st.lists(st.sampled_from(JOIN_METHODS), min_size=3, max_size=3))
    return tables, predicates, [], measured, methods


@settings(max_examples=40, deadline=None)
@given(case=_fanout_case())
def test_fanout_tables_every_join_order(case):
    _check_every_order(case)


def test_fanout_case_ranks_by_row_and_sums_per_rank(monkeypatch):
    """The fan-out shape reaches both new paths: a key ranked over a table
    shorter than the group set (first key and refinement), and a join whose
    only id column read above is the scanned alias, fed weights above one."""
    arrays = {
        "a": {"k": [0, 0], "j": [0, 1], "v": [0, 0]},
        "b": {"k": [0, 0, 0, 0], "j": [0, 0, 0, 0], "v": [0, 1, 0, 1]},
        "c": {"k": [0, 1, 0], "j": [0, 1, 1], "v": [0, 0, 1]},
        "d": {"k": [0, 0, 1], "j": [0, 0, 0], "v": [0, 0, 0]},
    }
    by_row, right_only_weights = [], []
    rank, refine, emit = engine_module.rank_keys, engine_module.refine_keys, ExecutionEngine._emit

    def spy_rank(left_keys, right_keys, left_rows=None):
        by_row.append(len(left_rows) > len(left_keys))
        return rank(left_keys, right_keys, left_rows)

    def spy_refine(ranks, left_keys, right_keys, left_rows=None):
        by_row.append(len(left_rows) > len(left_keys))
        return refine(ranks, left_keys, right_keys, left_rows)

    def spy_emit(left, right, right_alias, ranks, matches, out_count, needed):
        if needed == {right_alias}:
            right_only_weights.append(int(left.weight.max(initial=0)))
        return emit(left, right, right_alias, ranks, matches, out_count, needed)

    monkeypatch.setattr(engine_module, "rank_keys", spy_rank)
    monkeypatch.setattr(engine_module, "refine_keys", spy_refine)
    monkeypatch.setattr(ExecutionEngine, "_emit", staticmethod(spy_emit))
    for with_b_c in (True, False):
        tables = {
            alias: {**{c: np.array(v, dtype=np.int64) for c, v in cols.items()}, "x": np.arange(len(cols["k"])) / 7.0}
            for alias, cols in arrays.items()
        }
        links = [("a", "k", "b", "k"), ("a", "j", "c", "j"), ("c", "k", "d", "k")]
        links += [("b", "v", "c", "v")] if with_b_c else []
        predicates = [JoinPredicate(ColumnRef(a, x), ColumnRef(b, y)) for a, x, b, y in links]
        _check_every_order((tables, predicates, [], "d", ["hash", "merge", "nestloop"]))
    assert by_row.count(True) >= 2
    assert max(right_only_weights) > 1


def test_lookahead_reaches_every_outcome(monkeypatch):
    """Three tables of equal keys, two joined and one crossed: every order
    builds an output larger than its inputs, so the tiny-table checks (every
    order, small cap, tight timeout) reach each way a lookahead ends, every
    run still equal to the reference."""
    outcomes = set()
    look_ahead, driving_count = ExecutionEngine._look_ahead, ExecutionEngine._driving_count
    counts = []

    def spy_driving_count(self, *args):
        counts.append(driving_count(self, *args))
        return counts[-1]

    def spy_look_ahead(self, query, node, left, right, ranks, matches, out_count, state, above, above_right):
        affordable = int(state.remaining_units() / self.cost_model.params.output_tuple) + 1
        counts.clear()
        try:
            look_ahead(self, query, node, left, right, ranks, matches, out_count, state, above, above_right)
        except engine_module.TimeoutExceeded:
            if above is None:
                outcomes.add("root charge")
            elif not above.predicates:
                outcomes.add("cross charge" if state.work > state._deadline_units else "cross cap")
            elif counts[0] > engine_module.MAX_JOIN_OUTPUT:
                outcomes.add("predicate cap")
            elif counts[0] > affordable:
                outcomes.add("predicate affordable")
            else:
                assert len(above.predicates) == 1
                outcomes.add("single-predicate charge")
            raise
        outcomes.add("passed")

    monkeypatch.setattr(ExecutionEngine, "_look_ahead", spy_look_ahead)
    monkeypatch.setattr(ExecutionEngine, "_driving_count", spy_driving_count)
    rows = np.arange(6)
    tables = {
        alias: {"k": np.zeros(6, dtype=np.int64), "j": rows % 2, "v": rows % 3, "x": rows / 7.0}
        for alias in "abc"
    }
    case = (tables, [JoinPredicate(ColumnRef("a", "k"), ColumnRef("b", "k"))], [], "c", ["hash", "nestloop"])
    _check_every_order(case)
    for cap in (20, 100):
        _check_every_order(case, max_join_output=cap)
    for share in np.arange(0.3, 2.0, 0.05):
        _check_every_order(case, timeout_share=share)
    assert outcomes == {
        "root charge",
        "cross charge",
        "cross cap",
        "predicate cap",
        "predicate affordable",
        "single-predicate charge",
        "passed",
    }


def test_reference_never_runs_the_counting_path(monkeypatch):
    """The oracle overrides every operator of the counting engine: it shares
    scans and join charges, never the counting, the lookahead or the build."""

    def fail(*args):
        raise AssertionError("the reference engine reached the counting engine")

    for method in ("_run", "_join", "_check_output", "_check_cross", "_build", "_look_ahead", "_driving_count"):
        monkeypatch.setattr(ExecutionEngine, method, fail)
    monkeypatch.setattr(ExecutionEngine, "_emit", staticmethod(fail))
    rows = np.arange(6)
    tables = {alias: {"k": rows % 2, "j": rows % 3, "v": rows, "x": rows / 7.0} for alias in "abc"}
    storage, query, _ = _tiny_setup((tables, [JoinPredicate(ColumnRef("a", "k"), ColumnRef("b", "j"))], [], "c", []))
    reference = ReferenceExecutionEngine(storage)
    timed_out = set()
    for order in itertools.permutations(query.aliases):
        for methods in itertools.product(JOIN_METHODS, repeat=2):
            for timeout_ms in (None, 0.001):
                plan = _tiny_plan(query, list(order), methods)
                timed_out.add(reference.execute(query, plan, timeout_ms=timeout_ms).timed_out)
    assert timed_out == {False, True}


@st.composite
def _emit_case(draw):
    """Groups over aliases ``l`` and ``m`` (tables of <= 4 rows, up to 24
    entries repeating row ids, weights 1-9) and a scan of ``r`` (distinct row
    ids in any order), ranked on one key column or two."""
    num_entries = draw(st.integers(min_value=0, max_value=24))
    columns, ids = {}, {}
    for alias in ("l", "m"):
        columns[alias] = np.array(draw(st.lists(st.integers(0, 2), min_size=1, max_size=4)), dtype=np.int64)
        rows = st.lists(st.integers(0, len(columns[alias]) - 1), min_size=num_entries, max_size=num_entries)
        ids[alias] = np.array(draw(rows), dtype=np.int64)
    weights = st.lists(st.integers(1, 9), min_size=num_entries, max_size=num_entries)
    weight = np.array(draw(weights), dtype=np.int64)
    left = engine_module._Groups(ids=ids, weight=weight, count=int(weight.sum()))
    right_table = {c: np.array(draw(st.lists(st.integers(0, 2), min_size=10, max_size=10))) for c in "lm"}
    scanned = np.array(draw(st.permutations(range(10)))[: draw(st.integers(0, 10))], dtype=np.int64)
    right = engine_module._Groups(ids={"r": scanned}, weight=np.ones(len(scanned), dtype=np.int64), count=len(scanned))
    ranks = rank_keys(columns["l"], right_table["l"][scanned], ids["l"])
    if draw(st.booleans()):
        ranks = refine_keys(ranks, columns["m"], right_table["m"][scanned], ids["m"])
    return left, right, ranks


def _pair_merge(left, right, ranks, needed):
    """``_emit`` by enumeration: every (group, scanned row) pair, then equal ids merged."""
    group, row = expand_pairs(ranks)
    weight = left.weight[group]
    ids = {"r": right.ids["r"][row]}
    ids.update((alias, left.ids[alias][group]) for alias in needed - {"r"})
    if len(ids) == 1:
        summed = np.bincount(ids["r"], weights=weight)
        merged = np.flatnonzero(summed)
        return {"r": merged}, summed[merged].astype(np.int64)
    return ids, weight


@settings(max_examples=60, deadline=None)
@given(case=_emit_case())
def test_emit_equals_pair_merge(case):
    """Summing weights per rank (``needed == {"r"}``) and repeating group columns
    (``r`` and more) both give the arrays a pair-enumerating merge gives."""
    left, right, ranks = case
    matches = match_counts(ranks)
    out_count = int(left.weight @ matches)
    for needed in ({"r"}, {"r", "l"}, {"r", "l", "m"}):
        got = ExecutionEngine._emit(left, right, "r", ranks, matches, out_count, frozenset(needed))
        ids, weight = _pair_merge(left, right, ranks, needed)
        assert got.count == out_count == int(weight.sum())
        assert sorted(got.ids) == sorted(ids)
        for alias in ids:
            np.testing.assert_array_equal(got.ids[alias], ids[alias])
        np.testing.assert_array_equal(got.weight, weight)
        assert got.weight.dtype == weight.dtype == np.int64


# ----------------------------------------------------------------------
# Allocation guard: counts, not rows
# ----------------------------------------------------------------------
def _traced_peak(engine, query, plan):
    """``(result, peak bytes)`` of one execution; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        result = engine.execute(query, plan, timeout_ms=HARD_CAP_MS)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_counting_engine_allocates_a_fraction_of_enumeration(db, job_workload):
    """A swap of an 8-table expert plan that makes the row-enumerating engine
    allocate > 100 MB costs the counting engine under a quarter of it.

    (Not every plan shrinks: a product of aliases that are *all* read again
    has as many groups as rows.  This one joins through ids nobody reads again.)
    """
    query = next(item.query for item in job_workload.all_queries if item.query.name == "q14d")
    assert query.num_tables >= 8
    reference = ReferenceExecutionEngine(db.storage, db.executor.cost_model)
    expert = db.plan(query).plan
    order, methods = plan_aliases(expert), plan_join_methods(expert)
    for seed in range(4):
        swapped = list(order)
        i, j = np.random.default_rng(seed).choice(len(order), size=2, replace=False)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        plan = db.enumerator.join_space(query).complete(swapped, methods)
        want, reference_peak = _traced_peak(reference, query, plan)
        if reference_peak > 100e6:
            break
    else:
        pytest.fail("no swap of the expert order made the reference engine allocate 100 MB")
    got, peak = _traced_peak(db.executor, query, plan)
    assert got == want
    assert peak < reference_peak / 4
