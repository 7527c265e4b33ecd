"""Traditional optimizer tests: cardinality, cost, DP enumeration, hints,
and the engine's one join space per query."""

import contextlib
import dataclasses
import gc
import itertools
import math
import sys
import threading
import warnings
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_dp import (
    ReferenceEnumerator,
    joins_between,
    query_join_graph,
    reference_hinted_plan,
    reference_join_rows,
)
from repro.baselines.balsa import BalsaOptimizer
from repro.baselines.hybridqo import HybridQOOptimizer
from repro.baselines.loger import LogerOptimizer
from repro.engine.database import Database
from repro.engine.remote import EngineServer, RemoteBackend
from repro.optimizer import dp
from repro.optimizer.cost import CostModel, CostParameters, runtime_cost_parameters
from repro.optimizer.dp import OptimizerOptions, PlanEnumerator
from repro.optimizer import HintError
from repro.optimizer.plans import JOIN_METHODS, Plan, explain, plan_signature
from reference_plans import JoinNode, ScanNode, iter_nodes, to_record, to_tree
from reference_plans import explain as explain_tree
from repro.sql.ast import ColumnRef, FilterPredicate, JoinPredicate, Query
from repro.workloads import build_workload_by_name


@pytest.fixture(scope="module")
def db(job_database):
    return job_database


# Make the session fixture visible at module scope.
@pytest.fixture(scope="module")
def job_database(request):
    return request.getfixturevalue("job_workload").database


class TestCostModel:
    def test_seq_scan_linear_in_rows(self):
        cm = CostModel()
        assert cm.seq_scan(2000, 1) == pytest.approx(2 * cm.seq_scan(1000, 1))

    def test_index_scan_cheaper_when_selective(self):
        cm = CostModel()
        assert cm.index_scan(100_000, 10, 0) < cm.seq_scan(100_000, 1)

    def test_index_scan_worse_when_unselective(self):
        cm = CostModel()
        assert cm.index_scan(10_000, 10_000, 0) > cm.seq_scan(10_000, 1)

    def test_nested_loop_quadratic(self):
        cm = CostModel()
        assert cm.nested_loop(1000, 1000, 0) > 9 * cm.nested_loop(100, 1000, 0)

    def test_index_nl_beats_plain_nl_for_big_inner(self):
        cm = CostModel()
        assert cm.index_nested_loop(100, 100_000, 100) < cm.nested_loop(100, 100_000, 100)

    def test_sort_each_is_sort_per_element(self):
        """The DP's level arrays cost sorts a level at a time, bit for bit."""
        cm = CostModel()
        rng = np.random.default_rng(3)
        rows = np.concatenate((rng.lognormal(5.0, 4.0, 2000), [0.0, 1.0, 1e300, 1e308, np.inf]))
        with np.errstate(over="ignore"):
            each = cm.sort_each(rows)
        assert [value.hex() for value in each.tolist()] == [
            cm.sort(value).hex() for value in rows.tolist()
        ]

    def test_hash_beats_nl_for_large_both(self):
        cm = CostModel()
        assert cm.hash_join(50_000, 50_000, 50_000) < cm.nested_loop(50_000, 50_000, 50_000)

    @pytest.mark.parametrize("params", [CostParameters(), runtime_cost_parameters()], ids=["planner", "runtime"])
    def test_nested_loop_without_zero_rescan_term_is_bit_equal(self, params):
        """Dropping the dead ``outer * inner * 0.0`` term moved no finite cost."""
        cm = CostModel(params)
        inputs = [(1000, 1000, 0), (100, 1000, 0), (100, 100_000, 100), (50_000, 50_000, 50_000)]
        for outer, inner, out in inputs:
            pair, first = outer * inner * params.nl_pair, inner * params.nl_rescan_tuple
            with_rescan = pair + outer * inner * 0.0 + first + out * params.output_tuple
            assert cm.nested_loop(outer, inner, out).hex() == float(with_rescan).hex()

    def test_nested_loop_overflow_is_inf_not_nan(self):
        assert CostModel().nested_loop(float("inf"), 10.0, 1.0) == math.inf

    @pytest.mark.parametrize("params", [CostParameters(), runtime_cost_parameters()], ids=["planner", "runtime"])
    def test_index_nested_loop_through_descent_is_bit_equal(self, params):
        """Hoisting the descent kept ``(index_descent * log) * 0.08``'s association."""
        cm = CostModel(params)
        inputs = [(1.0, 0.0, 1.0), (100, 100_000, 100), (3.5e4, 1e9, 7.25), (1e200, 1e300, 1e200)]
        for outer, base, out in inputs:
            descent = params.index_descent * max(1.0, math.log2(base + 2)) * 0.08
            per_output = params.index_tuple + params.output_tuple
            inline = float(outer * (descent + params.index_tuple) + out * per_output).hex()
            assert cm.index_nested_loop(outer, base, out).hex() == inline
            as_arrays = cm.index_probe_loop(
                np.array([outer]), np.array([cm.index_descent(base)]), np.array([out])
            )
            assert float(as_arrays[0]).hex() == inline

    def test_milliseconds_conversion(self):
        cm = CostModel(CostParameters(work_units_per_ms=1000.0))
        assert cm.to_milliseconds(5000.0) == pytest.approx(5.0)

    def test_runtime_parameters_differ_from_planner(self):
        planner = CostParameters()
        runtime = runtime_cost_parameters()
        assert runtime.index_tuple > planner.index_tuple  # random IO under-priced
        assert runtime.hash_build_tuple < planner.hash_build_tuple  # hashing over-priced


class TestPlanTrees:
    """The plan record: its tuples, its constructor's checks, its text."""

    QUERY = Query(
        tables={"a": "title", "b": "movie_info", "c": "cast_info"},
        join_predicates=[
            JoinPredicate(ColumnRef("b", "movie_id"), ColumnRef("a", "id")),
            JoinPredicate(ColumnRef("c", "movie_id"), ColumnRef("a", "id")),
        ],
        filters=[FilterPredicate(ColumnRef("a", "kind_id"), "=", (1.0,))],
        name="abc",
    )

    def _left_deep(self, **changes):
        fields = dict(
            aliases=("a", "b", "c"),
            methods=("hash", "nestloop"),
            scan_types=("seq", "seq", "seq"),
            index_columns=(None, None, None),
            est_rows=(10.0, 20.0, 30.0, 15.0, 5.0),
            est_costs=(10.0, 20.0, 30.0, 50.0, 99.0),
        )
        fields.update(changes)
        return Plan(self.QUERY, **fields)

    def test_plan_aliases_left_to_right(self):
        assert self._left_deep().aliases == ("a", "b", "c")

    def test_plan_join_methods_bottom_up(self):
        plan = self._left_deep()
        assert plan.methods == ("hash", "nestloop")
        assert plan.predicates == tuple((p,) for p in self.QUERY.join_predicates)
        assert plan.filters == ((self.QUERY.filters[0],), (), ())

    def test_signature_stable_and_distinct(self):
        plan = self._left_deep()
        assert plan_signature(plan) == plan_signature(self._left_deep())
        assert plan_signature(plan) == "nestloop(hash(seq(a|a.kind_id = 1.0),seq(b|)),seq(c|))"
        other = dataclasses.replace(plan, methods=("merge", "nestloop"))
        assert plan_signature(other) != plan_signature(plan)

    def test_replace_join_method_levels(self):
        """A method is replaced by ``dataclasses.replace``, which runs the
        constructor's checks again."""
        plan = self._left_deep()
        assert dataclasses.replace(plan, methods=("hash", "merge")).methods == ("hash", "merge")
        with pytest.raises(ValueError, match="does not fit"):
            dataclasses.replace(plan, methods=("hash", "merge", "merge"))

    def test_invalid_method_raises(self):
        with pytest.raises(ValueError, match="unknown join method"):
            self._left_deep(methods=("hash", "sort"))

    def test_index_scan_requires_column(self):
        with pytest.raises(ValueError, match="index_column"):
            self._left_deep(scan_types=("index", "seq", "seq"))
        with pytest.raises(ValueError, match="index_column"):  # a column the query does not filter
            self._left_deep(scan_types=("index", "seq", "seq"), index_columns=("id", None, None))
        assert self._left_deep(scan_types=("index", "seq", "seq"), index_columns=("kind_id", None, None))

    def test_explain_renders(self):
        text = explain(self._left_deep())
        assert "Hash Join" in text and "Nested Loop" in text
        assert text == explain_tree(to_tree(self._left_deep()))


class TestEnumeration:
    def test_plan_covers_all_aliases(self, db, job_workload):
        for wq in job_workload.all_queries[:10]:
            plan = db.plan(wq.query).plan
            assert sorted(plan.aliases) == sorted(wq.query.aliases)

    def test_plan_estimates_annotated(self, db, job_workload):
        plan = db.plan(job_workload.all_queries[0].query).plan
        assert plan.est_costs[-1] > 0
        assert min(plan.est_rows) >= 1

    def test_disabled_methods_respected(self, db, job_workload):
        query = next(wq.query for wq in job_workload.all_queries if wq.query.num_tables >= 3)
        options = OptimizerOptions(disabled_methods=frozenset({"hash", "merge"}))
        plan = db.plan(query, options).plan
        assert set(plan.methods) <= {"nestloop"}

    def test_all_methods_disabled_raises(self):
        with pytest.raises(ValueError):
            OptimizerOptions(disabled_methods=frozenset(JOIN_METHODS)).allowed_methods()

    def test_leading_prefix_respected(self, db, job_workload):
        query = next(wq.query for wq in job_workload.all_queries if wq.query.num_tables >= 4)
        default_order = db.plan(query).plan.aliases
        prefix = (default_order[-1],)  # force a different leading table
        plan = db.plan(query, OptimizerOptions(leading_prefix=prefix)).plan
        assert plan.aliases[0] == prefix[0]

    def test_dp_beats_or_matches_random_hints_on_estimates(self, db, job_workload):
        """The DP plan's estimated cost is minimal among random hint plans."""
        rng = np.random.default_rng(0)
        query = next(wq.query for wq in job_workload.all_queries if 4 <= wq.query.num_tables <= 6)
        best = db.plan(query).plan
        for _ in range(20):
            order = list(query.aliases)
            rng.shuffle(order)
            methods = [JOIN_METHODS[int(rng.integers(3))] for _ in range(len(order) - 1)]
            hinted = db.plan_with_hints(query, order, methods).plan
            assert hinted.est_costs[-1] >= best.est_costs[-1] - 1e-6

    def test_greedy_fallback_for_many_tables(self, db, job_workload):
        query = max((wq.query for wq in job_workload.all_queries), key=lambda q: q.num_tables)
        options = OptimizerOptions(max_dp_tables=4)
        plan = db.plan(query, options).plan
        assert sorted(plan.aliases) == sorted(query.aliases)

    def test_single_table_query_is_scan(self, db):
        query = db.sql("SELECT COUNT(*) FROM title t WHERE t.production_year >= 2000")
        plan = db.plan(query).plan
        assert plan.aliases == ("t",) and plan.methods == ()


class TestPrefixValidation:
    """A bad ``leading_prefix`` is a typed hint error, not a stalled DP or a KeyError."""

    @pytest.fixture()
    def query(self, job_workload):
        return next(wq.query for wq in job_workload.all_queries if wq.query.num_tables >= 4)

    @pytest.mark.parametrize("max_dp_tables", [15, 0], ids=["dp", "greedy"])
    def test_unknown_and_repeated_aliases_raise_hint_error(self, db, query, max_dp_tables):
        first = query.aliases[0]
        for prefix in (("bogus",), (first, "bogus"), (first, first)):
            options = OptimizerOptions(leading_prefix=prefix, max_dp_tables=max_dp_tables)
            with pytest.raises(HintError):
                db.enumerator.optimize(query, options)

    def test_hint_error_is_one_value_error_class(self):
        assert dp.HintError is HintError and issubclass(HintError, ValueError)

    def test_hybridqo_swallows_only_hint_errors(self, db, query, monkeypatch):
        hybrid = HybridQOOptimizer(db)
        assert hybrid._prefix_value(query, ("bogus",)) == -50.0

        def broken_plan(*args, **kwargs):
            raise RuntimeError("engine down")

        monkeypatch.setattr(db, "plan", broken_plan)
        with pytest.raises(RuntimeError):
            hybrid._prefix_value(query, (query.aliases[0],))


class TestHints:
    def test_hint_roundtrip(self, db, job_workload):
        query = next(wq.query for wq in job_workload.all_queries if wq.query.num_tables >= 4)
        original = db.plan(query).plan
        order = original.aliases
        methods = original.methods
        rebuilt = db.plan_with_hints(query, order, methods).plan
        assert rebuilt.aliases == order
        assert rebuilt.methods == methods

    def test_wrong_alias_set_raises(self, db, job_workload):
        query = job_workload.all_queries[0].query
        with pytest.raises(HintError):
            db.plan_with_hints(query, ["bogus"] * query.num_tables, ["hash"] * (query.num_tables - 1))

    def test_wrong_method_count_raises(self, db, job_workload):
        query = job_workload.all_queries[0].query
        order = query.aliases
        with pytest.raises(HintError):
            db.plan_with_hints(query, order, ["hash"] * (len(order) + 3))

    def test_unknown_method_raises(self, db, job_workload):
        query = job_workload.all_queries[0].query
        order = query.aliases
        with pytest.raises(HintError):
            db.plan_with_hints(query, order, ["sortmerge"] * (len(order) - 1))

    def test_cross_join_order_allowed(self, db, job_workload):
        """Hinted orders may force cross joins; the builder must not fail."""
        query = next(wq.query for wq in job_workload.all_queries if wq.query.num_tables >= 5)
        order = sorted(query.aliases)  # arbitrary order, probably disconnected
        methods = ["hash"] * (len(order) - 1)
        plan = db.plan_with_hints(query, order, methods).plan
        assert list(plan.aliases) == order


class TestCardinality:
    def test_scan_rows_at_least_one(self, db):
        query = db.sql("SELECT COUNT(*) FROM title t WHERE t.production_year BETWEEN 1 AND 2")
        assert db.estimator.scan_rows(query, "t") >= 1.0

    def test_filter_reduces_estimate(self, db):
        unfiltered = db.sql("SELECT COUNT(*) FROM title t")
        filtered = db.sql("SELECT COUNT(*) FROM title t WHERE t.kind_id = 0")
        assert db.estimator.scan_rows(filtered, "t") <= db.estimator.scan_rows(unfiltered, "t")

    def test_join_selectivity_uses_ndv(self, db):
        query = db.sql(
            "SELECT COUNT(*) FROM title t, movie_info mi WHERE mi.movie_id = t.id"
        )
        sel = db.estimator.join_selectivity(query, query.join_predicates[0])
        assert 0 < sel <= 1

    def test_independence_assumption_on_correlated_pair(self, db):
        """The estimator multiplies selectivities for planted-correlated
        columns, underestimating consistent pairs — FOSS's raison d'etre."""
        from repro.catalog.datagen import correlation_mapping

        mapping = correlation_mapping(11, 113, 500)
        base_value = 0
        query = db.sql(
            "SELECT COUNT(*) FROM movie_info mi "
            f"WHERE mi.info_type_id = {base_value} AND mi.info = {int(mapping[base_value])}"
        )
        estimated = db.estimator.scan_rows(query, "mi")
        plan = db.plan(query).plan
        true_rows = db.execute(query, plan).output_rows
        if true_rows > 20:  # only meaningful when the pair selects something
            assert estimated < true_rows


# ----------------------------------------------------------------------
# Fast-path parity: the bitmask DP, scalar loop and level arrays alike,
# against the frozenset DP it replaced (tests/reference_dp.py), float.hex
# for float.hex.
# ----------------------------------------------------------------------
PARITY_WORKLOADS = ("job", "stack", "tpcds")
DISABLED_SUBSETS = [
    frozenset(subset) for size in (1, 2) for subset in itertools.combinations(JOIN_METHODS, size)
]
# crc32 over every expert plan (signature + per-node estimates) at scale 0.02,
# dataset seed 1, recorded from the commit before the bitmask DP.
EXPERT_PLAN_DIGESTS = {"job": "1c748363", "stack": "07da8ea5", "tpcds": "c053a584"}
# The DP's two paths, each forced through ``ARRAY_DP_MIN_TABLES``.
DP_PATHS = {"scalar": 10**9, "array": 2}


@contextlib.contextmanager
def dp_path(path):
    """Run every DP-sized query through one path of the expert DP."""
    saved = dp.ARRAY_DP_MIN_TABLES
    dp.ARRAY_DP_MIN_TABLES = DP_PATHS[path]
    try:
        yield
    finally:
        dp.ARRAY_DP_MIN_TABLES = saved


def tree(plan):
    """Everything the parity contract covers, per node in post-order (a
    record as its tree)."""
    if isinstance(plan, Plan):
        plan = to_tree(plan)
    nodes = []
    for node in iter_nodes(plan):
        estimates = (float(node.est_rows).hex(), float(node.est_cost).hex())
        if isinstance(node, ScanNode):
            shape = (node.alias, node.table, node.scan_type, node.index_column, node.filters)
        else:
            shape = (node.method, node.predicates)
        nodes.append(shape + estimates)
    return nodes


def memoized(optimize):
    """``optimize`` answering each (query, options) once: the reference DP
    is the slow side of every parity check, and its answer is fixed."""
    answers = {}

    def cached(query, options=None):
        key = (id(query), (options or OptimizerOptions()).signature())
        if key not in answers:
            answers[key] = (query, optimize(query, options))  # holds the query, so its id stays its own
        return answers[key][1]

    return cached


@pytest.fixture(scope="module")
def planners():
    """workload name -> (workload, the old planner over the same database)."""
    built = {}
    for name in PARITY_WORKLOADS:
        workload = build_workload_by_name(name, scale=0.02, seed=1)
        database = workload.database
        reference = ReferenceEnumerator(
            database.estimator, database.cost_model, database.catalog.has_index
        )
        reference.optimize = memoized(reference.optimize)
        built[name] = (workload, reference)
    return built


def cross_join_prefixes(query):
    """Two-alias prefixes whose second alias shares no predicate with the first."""
    graph = query_join_graph(query)
    return [
        (a, b) for a in query.aliases for b in query.aliases if a != b and not graph.has_edge(a, b)
    ]


@pytest.fixture(scope="module")
def reference_trees(planners):
    """(workload, query, options, reference tree) for every DP-sized query.

    Each query runs plain, with one disabled-method subset, with the
    reverse of its plan's first three aliases as leading prefix and, if it
    has one, with a cross-join-forcing prefix; the subsets and prefixes
    rotate with the query's position.
    """
    cases = []
    for name in PARITY_WORKLOADS:
        workload, reference = planners[name]
        for index, wq in enumerate(workload.all_queries):
            query = wq.query
            if not 2 <= query.num_tables <= 15:
                continue
            plain = reference.optimize(query)
            shapes = [
                OptimizerOptions(disabled_methods=DISABLED_SUBSETS[index % len(DISABLED_SUBSETS)]),
                OptimizerOptions(leading_prefix=tuple(reversed(to_record(plain, query).aliases[:3]))),
            ]
            crossing = cross_join_prefixes(query)
            if crossing:
                shapes.append(OptimizerOptions(leading_prefix=crossing[index % len(crossing)]))
            cases.append((name, query, OptimizerOptions(), tree(plain)))
            for options in shapes:
                cases.append((name, query, options, tree(reference.optimize(query, options))))
    return cases


class InflatedEstimator:
    """An estimator whose scan rows are scaled by ``factor`` (overflow tests)."""

    def __init__(self, estimator, factor):
        self.estimator, self.factor = estimator, factor

    def scan_rows(self, query, alias):
        return self.estimator.scan_rows(query, alias) * self.factor

    def __getattr__(self, name):
        return getattr(self.estimator, name)


class TestFastPathParity:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_differential_against_reference_dp(self, planners, data):
        workload, reference = planners[data.draw(st.sampled_from(PARITY_WORKLOADS), label="workload")]
        queries = [wq.query for wq in workload.all_queries if wq.query.num_tables >= 2]
        query = queries[data.draw(st.integers(0, len(queries) - 1), label="query")]
        shape = data.draw(st.sampled_from(("plain", "disabled", "prefix", "cross")), label="shape")
        disabled, prefix = frozenset(), ()
        if shape == "disabled":
            disabled = data.draw(st.sampled_from(DISABLED_SUBSETS), label="disabled")
        elif shape == "prefix":
            order = to_record(reference.optimize(query), query).aliases
            if data.draw(st.booleans(), label="shuffled order"):
                order = data.draw(st.permutations(order), label="order")
            prefix = tuple(order[: data.draw(st.integers(1, min(3, len(order))), label="length")])
        elif shape == "cross" and cross_join_prefixes(query):
            prefix = data.draw(st.sampled_from(cross_join_prefixes(query)), label="prefix")
        # max_dp_tables=0 routes through the greedy fallback (HybridQO's rollouts).
        max_dp_tables = data.draw(st.sampled_from((15, 0)), label="max_dp_tables")
        options = OptimizerOptions(disabled, prefix, max_dp_tables)
        with dp_path(data.draw(st.sampled_from(sorted(DP_PATHS)), label="path")):
            fast = workload.database.enumerator.optimize(query, options)
        assert tree(fast) == tree(reference.optimize(query, options))

    @pytest.mark.parametrize("path", sorted(DP_PATHS))
    def test_every_dp_query_matches_reference_on_both_paths(self, planners, reference_trees, path):
        with dp_path(path):
            for name, query, options, expected in reference_trees:
                fast = planners[name][0].database.enumerator.optimize(query, options)
                assert tree(fast) == expected, (name, query.name, options)

    def test_exact_ties_pick_the_same_winner_on_both_paths(self, planners):
        """Two aliases of one table under one filter: mirrored subsets cost the same."""
        workload, reference = planners["job"]
        database = workload.database
        query = database.sql(
            "SELECT COUNT(*) FROM title AS t1, title AS t2, movie_info AS mi1, movie_info AS mi2, "
            "movie_keyword AS mk WHERE mi1.movie_id = t1.id AND mi2.movie_id = t2.id "
            "AND mk.movie_id = t1.id AND mk.movie_id = t2.id "
            "AND t1.production_year > 2000 AND t2.production_year > 2000",
            name="twin_aliases",
        )
        expected = reference.optimize(query)
        twin = {"t1": "t2", "t2": "t1", "mi1": "mi2", "mi2": "mi1", "mk": "mk"}
        record = to_record(expected, query)
        mirrored = [twin[alias] for alias in record.aliases]
        tie = database.enumerator.join_space(query).complete(mirrored, record.methods)
        assert tuple(mirrored) != record.aliases
        assert tie.est_costs[-1].hex() == expected.est_cost.hex()  # the full set ties exactly
        for path in DP_PATHS:
            with dp_path(path):
                assert tree(database.enumerator.optimize(query)) == tree(expected), path

    def test_disconnected_remainder_cross_joins_in_query_order(self, planners):
        """Two tying components (the binder refuses these; the DP must not).

        The cross-join fallback lists the remaining aliases in query order,
        which differs from name order here, and only tie-breaks can see it.
        """
        workload, reference = planners["job"]
        connected = workload.database.sql(
            "SELECT COUNT(*) FROM title AS t2, movie_info AS mi1, title AS t1, movie_info AS mi2 "
            "WHERE mi1.movie_id = t1.id AND mi2.movie_id = t2.id AND t1.id = t2.id "
            "AND t1.production_year > 2000 AND t2.production_year > 2000",
            name="twin_components",
        )
        query = dataclasses.replace(connected, join_predicates=connected.join_predicates[:2])
        assert not query.is_connected()
        expected = tree(reference.optimize(query))
        for path in DP_PATHS:
            with dp_path(path):
                assert tree(workload.database.enumerator.optimize(query)) == expected, path

    def test_overflow_is_inf_on_both_paths_without_warnings(self, planners):
        """Scan rows near 1e200 overflow every join: totals are inf, never NaN."""
        workload, _ = planners["job"]
        database = workload.database
        inflated = InflatedEstimator(database.estimator, 1e196)
        enumerator = PlanEnumerator(inflated, database.cost_model, database.catalog.has_index)
        reference = ReferenceEnumerator(inflated, database.cost_model, database.catalog.has_index)
        query = next(wq.query for wq in workload.all_queries if wq.query.num_tables == 9)
        plans = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for path in DP_PATHS:
                with dp_path(path):
                    plans[path] = enumerator.optimize(query)
        assert tree(plans["array"]) == tree(plans["scalar"]) == tree(reference.optimize(query))
        joins = [node for node in iter_nodes(to_tree(plans["array"])) if isinstance(node, JoinNode)]
        assert all(node.est_cost == math.inf and node.est_rows == math.inf for node in joins)
        assert not any(math.isnan(cost) for cost in plans["array"].est_costs)

    def test_multiply_reduceat_folds_left_to_right(self):
        """The array path's selectivities rely on numpy folding a multiply
        reduction in order, as ``JoinSpace.extend``'s loop does."""

        def halves(values):  # a reassociated product, to show the check can fail
            if len(values) == 1:
                return values[0]
            middle = len(values) // 2
            return halves(values[:middle]) * halves(values[middle:])

        rng = np.random.default_rng(7)
        lengths = rng.integers(1, 40, size=200)
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        factors = rng.uniform(1e-6, 1.0, size=int(lengths.sum()))
        reassociated = 0
        for start, length, folded in zip(starts, lengths, np.multiply.reduceat(factors, starts)):
            segment = factors[start : start + length].tolist()
            product = 1.0
            for factor in segment:
                product *= factor
            assert float(folded).hex() == product.hex()
            reassociated += halves(segment) != product
        assert reassociated > 0

    def test_array_path_evaluates_the_scalar_loops_expansions(self, planners, monkeypatch):
        """Query by query, the array path's pairs are the scalar loop's expansions.

        A skeleton hit builds no pairs, so each array-path call starts from
        an empty skeleton memo.
        """
        counts = {"pairs": 0, "expansions": 0}
        level_pairs, extend = dp._level_pairs, dp.JoinSpace.extend

        def counting_pairs(*args):
            left, alias = level_pairs(*args)
            counts["pairs"] += len(left)
            return left, alias

        def counting_extend(space, *args):
            counts["expansions"] += 1
            return extend(space, *args)

        monkeypatch.setattr(dp, "_level_pairs", counting_pairs)
        monkeypatch.setattr(dp.JoinSpace, "extend", counting_extend)
        found = {"pairs": [], "expansions": []}
        for name in PARITY_WORKLOADS:
            workload, _ = planners[name]
            for wq in workload.all_queries:
                if not 2 <= wq.query.num_tables <= 15:
                    continue
                for path, key in (("array", "pairs"), ("scalar", "expansions")):
                    counts[key] = 0
                    workload.database.enumerator.skeletons.clear()
                    with dp_path(path):
                        workload.database.enumerator.optimize(wq.query)
                    found[key].append(counts[key])
        assert found["pairs"] == found["expansions"]
        assert sum(found["pairs"]) > 0

    @pytest.mark.parametrize("name", PARITY_WORKLOADS)
    def test_expert_plan_digest_pinned(self, planners, name):
        workload, _ = planners[name]
        crc = 0
        for wq in workload.all_queries:
            plan = workload.database.enumerator.optimize(wq.query)
            estimates = "".join(f"|{n.est_rows.hex()}|{n.est_cost.hex()}" for n in iter_nodes(to_tree(plan)))
            crc = zlib.crc32((plan_signature(plan) + estimates).encode(), crc)
        assert f"{crc:08x}" == EXPERT_PLAN_DIGESTS[name]

    @pytest.mark.parametrize("name", PARITY_WORKLOADS)
    def test_hint_completion_parity(self, planners, name):
        workload, reference = planners[name]
        rng = np.random.default_rng(5)
        for wq in workload.all_queries:
            expert = to_record(reference.optimize(wq.query), wq.query)
            order, methods = expert.aliases, expert.methods
            for hinted_order in (order, *(list(rng.permutation(order)) for _ in range(2))):
                fast = workload.database.enumerator.join_space(wq.query).complete(hinted_order, methods)
                assert tree(fast) == tree(reference_hinted_plan(reference, wq.query, hinted_order, methods))

    @pytest.mark.parametrize("name", PARITY_WORKLOADS)
    def test_plan_estimates_are_python_floats(self, planners, name):
        """No numpy scalar leaks out of the statistics: ``np.float64`` estimates
        pickle five times larger on the wire, print as ``np.float64(...)`` and
        send the DP's arithmetic through numpy-scalar dispatch."""
        workload, _ = planners[name]
        rng = np.random.default_rng(6)
        for wq in workload.all_queries:
            expert = workload.database.enumerator.optimize(wq.query)
            order, methods = expert.aliases, expert.methods
            hinted = workload.database.enumerator.join_space(wq.query).complete(list(rng.permutation(order)), methods)
            for plan in (expert, hinted):
                for value in plan.est_rows + plan.est_costs:
                    assert type(value) is float, (wq.query.name, plan)

    def test_dp_cost_is_the_brute_force_minimum(self, planners):
        """Up to 6 tables, walk every cross-product-free left-deep order.

        The DP keeps one entry per subset, so it is exact only while a
        subset's row estimate does not depend on the order it was joined in;
        the ``max(1, rows)`` clamp breaks that (5 of the 95 clamped queries
        here have a cheaper plan the DP cannot see).  Unclamped queries must
        hit the minimum; clamped ones are bounded by it.
        """
        exact = 0
        for name in PARITY_WORKLOADS:
            workload, reference = planners[name]
            for wq in workload.all_queries:
                if 2 <= wq.query.num_tables <= 6:
                    minimum, clamped = brute_force_minimum(reference, wq.query)
                    cost = workload.database.enumerator.optimize(wq.query).est_costs[-1]
                    assert cost >= minimum * (1 - 1e-9)
                    if not clamped:
                        assert cost == pytest.approx(minimum, rel=1e-9)
                        exact += 1
        assert exact >= 150


def brute_force_minimum(reference, query):
    """(cheapest cost over all connected left-deep orders, any estimate clamped?)."""
    aliases = query.aliases
    scans = {alias: reference.best_scan(query, alias) for alias in aliases}
    graph = query_join_graph(query)
    best, clamped = math.inf, False

    def walk(order, rows, cost):
        nonlocal best, clamped
        if len(order) == len(aliases):
            best = min(best, cost)
            return
        for alias in aliases:
            if alias in order or not any(graph.has_edge(alias, joined) for joined in order):
                continue
            scan = scans[alias]
            predicates = joins_between(query, order, [alias])
            out_rows = reference_join_rows(reference.estimator, query, rows, scan.est_rows, predicates)
            clamped = clamped or out_rows == 1.0
            op_cost = min(
                reference.join_cost(query, method, rows, scan, out_rows, predicates)
                for method in JOIN_METHODS
            )
            walk(order + [alias], out_rows, cost + scan.est_cost + op_cost)

    for alias in aliases:
        walk([alias], scans[alias].est_rows, scans[alias].est_cost)
    return best, clamped


# ----------------------------------------------------------------------
# One join space per query per engine: ``Database.join_space`` is built once
# per query signature and cache epoch and shared by the expert plan, every
# hint completion and the constructive baselines.
# ----------------------------------------------------------------------
@pytest.fixture()
def space_builds(monkeypatch):
    """Statement keys of the join spaces built while the test runs, in order."""
    built = []
    join_space = PlanEnumerator.join_space

    def counting(enumerator, query):
        built.append(query.key())
        return join_space(enumerator, query)

    monkeypatch.setattr(PlanEnumerator, "join_space", counting)
    return built


class TestSharedJoinSpace:
    @pytest.mark.parametrize("name", PARITY_WORKLOADS)
    def test_shared_space_plans_equal_a_fresh_spaces(self, planners, name):
        workload, _ = planners[name]
        database = Database(workload.database.dataset)
        rng = np.random.default_rng(5)
        for wq in workload.all_queries:
            fresh = database.enumerator.join_space(wq.query)
            expert = database.plan(wq.query).plan
            assert tree(expert) == tree(database.enumerator.search(fresh)), wq.query.name
            order, methods = expert.aliases, expert.methods
            for hinted_order in (order, *(list(rng.permutation(order)) for _ in range(2))):
                hinted = database.plan_with_hints(wq.query, hinted_order, methods).plan
                assert tree(hinted) == tree(fresh.complete(hinted_order, methods)), wq.query.name
            # Both plans were built from the memoized space: they share its query.
            space = database.join_space(wq.query)
            assert expert.query is hinted.query is space.query

    def test_one_space_per_query_per_cache_epoch(self, planners, space_builds):
        workload, _ = planners["stack"]
        database = Database(workload.database.dataset)
        queries = [wq.query for wq in workload.all_queries]
        distinct = sorted({query.key() for query in queries})
        baselines = [
            BalsaOptimizer(database),
            LogerOptimizer(database),
            HybridQOOptimizer(database, mcts_budget=4),
        ]
        for clear in (database.clear_plan_cache, database.clear_caches):
            space_builds.clear()
            for query in queries + queries[:8]:
                expert = database.plan(query).plan
                reversed_order = list(reversed(expert.aliases))
                database.plan_with_hints(query, reversed_order, expert.methods)
                database.plan(query, OptimizerOptions(disabled_methods=frozenset({"merge"})))
            for baseline in baselines:
                for query in queries[:3]:
                    baseline.optimize(query)
            assert sorted(space_builds) == distinct
            assert database.stats()["join_spaces"] == len(distinct)
            clear()
            assert database.stats()["join_spaces"] == 0

    def test_plans_and_spaces_are_bounded_by_the_statement_capacity(self, planners, space_builds):
        workload, _ = planners["job"]
        database = Database(workload.database.dataset)
        database._plan_cache.capacity = database._join_spaces.capacity = 3
        queries = [wq.query for wq in workload.all_queries[:6]]
        signatures = [query.key() for query in queries]
        for query in queries:
            database.plan(query)
            assert database.stats()["plan_cache"] <= 3
            assert database.stats()["join_spaces"] <= 3
        assert list(database._plan_cache) == list(database._join_spaces) == signatures[3:]
        database.plan(queries[3])  # a read refreshes recency: 4 is now the oldest
        database.plan(queries[0])
        assert list(database._plan_cache) == [signatures[i] for i in (5, 3, 0)]
        # A plan hit reads no space, so the space memo dropped 3, not 4.
        assert list(database._join_spaces) == [signatures[i] for i in (4, 5, 0)]
        assert space_builds == signatures + signatures[:1]  # the evicted one is rebuilt

    def test_concurrent_planners_share_one_space_per_query(self, planners):
        """Eight threads plan and complete the same queries under a tiny
        switch interval: every result equals a fresh space's, one space per
        query is left, and a small capacity is never exceeded."""
        workload, _ = planners["stack"]
        queries = [wq.query for wq in workload.all_queries[:12]]
        expected = {}
        for query in queries:
            space = workload.database.enumerator.join_space(query)
            plan = workload.database.enumerator.search(space)
            hinted = space.complete(plan.aliases[::-1], plan.methods)
            expected[query.name] = (tree(plan), tree(hinted))
        database = Database(workload.database.dataset)
        database._plan_cache.capacity = database._join_spaces.capacity = 8
        results = [None] * 8

        def run(slot):
            found = []
            for _ in range(3):
                for query in queries[slot % 4 :] + queries[: slot % 4]:
                    plan = database.plan(query).plan
                    hinted = database.plan_with_hints(
                        query, plan.aliases[::-1], plan.methods
                    ).plan
                    found.append((query.name, tree(plan), tree(hinted)))
                    assert database.stats()["join_spaces"] <= 8
            results[slot] = found

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for found in results:
            assert found is not None and len(found) == 3 * len(queries)
            for name, plan, hinted in found:
                assert (plan, hinted) == expected[name]
        assert database.stats()["join_spaces"] == len(database._join_spaces) <= 8

    def test_remote_clear_caches_empties_the_servers_memo(self, planners):
        workload, _ = planners["job"]
        server_database = Database(workload.database.dataset)
        queries = [wq.query for wq in workload.all_queries[:4]]
        with EngineServer(server_database) as server:
            server.start()
            with RemoteBackend(server.url, timeout_s=60.0) as backend:
                backend.plan_many(queries)
                assert server_database.stats()["join_spaces"] == len(queries)
                # The baselines search a space built from the server's
                # catalog, with no round trip, and the server's expert finds
                # its own plan there.
                space = backend.join_space(queries[0])
                assert backend.join_space(queries[0]) is space
                assert server_database.enumerator.search(space) == server_database.plan(
                    queries[0]
                ).plan
                backend.clear_caches()
                assert server_database.stats()["join_spaces"] == 0
                assert backend.join_space(queries[0]) is not space


# ----------------------------------------------------------------------
# One DP skeleton per join graph: the level arrays' graph-only structure is
# built once per join graph and cache epoch (``Database._dp_skeletons``)
# and evaluated over each query's estimates.
# ----------------------------------------------------------------------
@pytest.fixture()
def skeleton_builds(monkeypatch):
    """The leading prefix of every skeleton built while the test runs, in order."""
    built = []
    skeleton = dp._skeleton

    def counting(space, prefix):
        built.append(tuple(prefix))
        return skeleton(space, prefix)

    monkeypatch.setattr(dp, "_skeleton", counting)
    return built


def array_queries(workload):
    """The queries the default expert plans on the level arrays."""
    return [
        wq.query
        for wq in workload.all_queries
        if dp.ARRAY_DP_MIN_TABLES <= wq.query.num_tables <= OptimizerOptions().max_dp_tables
    ]


def skeleton_keys(database, queries):
    """Each query's key in ``database``'s skeleton memo, which is left empty."""
    keys = []
    for query in queries:
        database._dp_skeletons.clear()
        database.enumerator.search(database.join_space(query))
        keys.append(next(iter(database._dp_skeletons)))
    database._dp_skeletons.clear()
    return keys


class TestDpSkeletons:
    def test_a_miss_and_a_hit_both_match_reference(self, planners, reference_trees, skeleton_builds):
        """Every parity case twice through one enumerator on the array path.

        A prefix-free case builds its skeleton once and reads it the second
        time; a prefixed one builds it both times and stores nothing.
        """
        with dp_path("array"):
            for name, query, options, expected in reference_trees:
                enumerator = planners[name][0].database.enumerator
                enumerator.skeletons.clear()
                skeleton_builds.clear()
                miss = enumerator.optimize(query, options)
                hit = enumerator.optimize(query, options)
                assert tree(miss) == tree(hit) == expected, (name, query.name, options)
                if options.leading_prefix:
                    assert len(skeleton_builds) == 2 and len(enumerator.skeletons) == 0
                else:
                    assert skeleton_builds == [()] and len(enumerator.skeletons) == 1

    def test_one_join_graph_shares_one_skeleton_and_a_prefix_stores_none(
        self, planners, skeleton_builds
    ):
        """Siblings with other filters share their graph's skeleton.

        A prefixed search (HybridQO draws several per query) builds its own
        skeleton and stores none: the plan cache already answers a repeated
        (query, prefix), so only a sibling drawing the same prefix could
        read it, while storing each would evict prefix-free ones.
        """
        workload, reference = planners["job"]
        database = Database(workload.database.dataset)
        queries = array_queries(workload)
        graphs = {}
        for key, query in zip(skeleton_keys(database, queries), queries):
            graphs.setdefault(key, []).append(query)
        first, second = next(siblings for siblings in graphs.values() if len(siblings) > 1)[:2]
        assert first.filters != second.filters
        database.clear_plan_cache()
        skeleton_builds.clear()
        for query in (first, second):
            assert tree(database.plan(query).plan) == tree(reference.optimize(query))
        assert skeleton_builds == [()] and database.stats()["dp_skeletons"] == 1
        prefix = tuple(reversed(to_record(reference.optimize(second), second).aliases[:2]))
        options = OptimizerOptions(leading_prefix=prefix)
        assert tree(database.plan(second, options).plan) == tree(reference.optimize(second, options))
        assert len(skeleton_builds) == 2 and skeleton_builds[1] != ()
        assert database.stats()["dp_skeletons"] == 1

    def test_clearing_empties_the_memo_and_it_keeps_its_bound(self, planners):
        workload, _ = planners["job"]
        database = Database(workload.database.dataset)
        queries = array_queries(workload)
        graphs = len(set(skeleton_keys(database, queries)))
        for clear in (database.clear_plan_cache, database.clear_caches):
            for query in queries:
                database.plan(query)
            assert database.stats()["dp_skeletons"] == graphs > 3
            clear()
            assert database.stats()["dp_skeletons"] == 0
        database._dp_skeletons.capacity = 3
        for query in queries:
            database.plan(query)
            assert database.stats()["dp_skeletons"] <= 3
        assert database.stats()["dp_skeletons"] == 3

    def test_a_dropped_database_with_a_full_memo_is_freed(self, planners):
        """Skeletons hold only arrays, so no cycle keeps an engine alive: the
        last reference going frees it without a collection."""
        workload, _ = planners["job"]
        database = Database(workload.database.dataset)
        database._dp_skeletons.capacity = 4
        for query in array_queries(workload):
            database.plan(query)
        assert len(database._dp_skeletons) == 4
        for key in database._dp_skeletons:
            skeleton = database._dp_skeletons.get(key)
            arrays = [skeleton.first, *(array for level in skeleton.levels for array in level)]
            assert all(isinstance(array, np.ndarray) and array.dtype != object for array in arrays)
        dropped = weakref.ref(database)
        gc.collect()
        gc.disable()
        try:
            del database
            assert dropped() is None
        finally:
            gc.enable()
