"""EngineBackend protocol: conformance, batch mirrors, cache contracts.

Covers the engine-level contracts the training loop relies on:

* the dynamic-timeout path — a cached latency above a requested timeout is
  reported as a timeout *without* re-running, and ``Database.executions``
  counts only cache misses;
* LRU eviction of the hint cache (a hot loop keeps its working set; the
  cache no longer drops wholesale at the capacity cliff);
* batch APIs (``plan_many`` / ``plan_with_hints_many`` / ``execute_many``)
  return exactly what their singleton counterparts return;
* ``WorkloadSpec`` rebuilds a bitwise-identical engine (the property a
  ``repro-engine`` server and its clients depend on);
* the statement cache behind ``sql()``: one shared read-only ``Query`` per
  (text, name), LRU-bounded, never holding a failed bind, emptied by
  ``clear_caches()`` on both backends, and invisible in the plans.
"""

import copy
import sys
import threading

import pytest

from repro.api import FossConfig, FossSession
from repro.api.service import DEFAULT_MEMO_CAPACITY
from repro.core.aam import AAMConfig
from repro.core.icp import IncompletePlan
from repro.engine.backend import EngineBackend, LocalBackend
from repro.engine.database import Database
from repro.engine.remote import EngineServer, RemoteBackend
from reference_plans import ScanNode, iter_nodes, to_tree
from repro.optimizer.plans import plan_signature
from repro.sql.binder import BindError
from repro.sql.parser import ParseError
from repro.workloads.base import Workload, WorkloadSpec
from repro.workloads.job import build_job_dataset


@pytest.fixture(scope="module")
def tiny_db():
    """A small private engine (tests mutate caches and counters)."""
    return Database(build_job_dataset(scale=0.02, seed=5))


@pytest.fixture(scope="module")
def bound_query(tiny_db):
    return tiny_db.sql(
        "SELECT COUNT(*) FROM title AS t, movie_info AS mi, cast_info AS ci "
        "WHERE mi.movie_id = t.id AND ci.movie_id = t.id;",
        name="backend_q",
    )


class TestProtocolConformance:
    def test_database_satisfies_protocol(self, tiny_db):
        assert isinstance(tiny_db, EngineBackend)

    def test_local_backend_is_a_database(self):
        backend = LocalBackend.from_spec(WorkloadSpec("job", scale=0.02, seed=5))
        assert isinstance(backend, Database)
        assert isinstance(backend, EngineBackend)

    def test_session_picks_local_or_remote_backend(self, tiny_db):
        workload = Workload(name="x", database=tiny_db, train=[], test=[], spec=None)
        with FossSession.open(workload=workload) as session:
            assert session.backend is tiny_db
        server_db = WorkloadSpec("job", scale=0.02, seed=5).build_database()
        with EngineServer(server_db) as server:
            server.start()
            config = FossConfig(engine_url=server.url)
            with FossSession.open(workload=workload, config=config) as session:
                backend = session.backend
                assert isinstance(backend, RemoteBackend)
                assert isinstance(backend, EngineBackend)
                assert backend.catalog.fingerprint == server_db.catalog.fingerprint
            with pytest.raises(RuntimeError, match="closed"):
                backend.ping()  # the session connected it, so it closed it


class TestDynamicTimeout:
    def test_cached_latency_above_timeout_reports_timeout_without_rerun(
        self, tiny_db, bound_query
    ):
        plan = tiny_db.plan(bound_query).plan
        full = tiny_db.execute(bound_query, plan)
        assert full.latency_ms > 0 and not full.timed_out
        executions_before = tiny_db.executions
        capped = tiny_db.execute(bound_query, plan, timeout_ms=full.latency_ms / 2)
        assert capped.timed_out
        assert capped.latency_ms == full.latency_ms / 2
        assert capped.output_rows == 0
        assert tiny_db.executions == executions_before, "timeout served from cache"

    def test_executions_counts_only_cache_misses(self, tiny_db, bound_query):
        plan = tiny_db.plan(bound_query).plan
        tiny_db.execute(bound_query, plan)  # ensure cached
        before = tiny_db.executions
        for _ in range(3):
            tiny_db.execute(bound_query, plan)
        assert tiny_db.executions == before
        # A plan the cache has never seen is a miss and counts once.
        icp = IncompletePlan(plan.aliases, plan.methods)
        alt_method = "merge" if icp.methods[0] != "merge" else "nestloop"
        alt = tiny_db.plan_with_hints(
            bound_query, icp.order, (alt_method,) + tuple(icp.methods[1:])
        ).plan
        assert plan_signature(alt) != plan_signature(plan)
        tiny_db.execute(bound_query, alt)
        assert tiny_db.executions == before + 1
        tiny_db.execute(bound_query, alt)
        assert tiny_db.executions == before + 1

    def test_uncached_execution_always_runs(self, tiny_db, bound_query):
        """An execution the latency cache does not hold runs, even under a
        timeout its earlier latency exceeded; virtual time repeats."""
        plan = tiny_db.plan(bound_query).plan
        full = tiny_db.execute(bound_query, plan)
        tiny_db.clear_caches()
        before = tiny_db.executions
        capped = tiny_db.execute(bound_query, plan, timeout_ms=full.latency_ms / 2)
        assert capped.timed_out and capped.latency_ms == full.latency_ms / 2
        assert tiny_db.executions == before + 1
        tiny_db.clear_caches()
        again = tiny_db.execute(bound_query, plan)
        assert tiny_db.executions == before + 2
        assert again.latency_ms == full.latency_ms and again.output_rows == full.output_rows


class TestHintCacheLRU:
    def _variants(self, db, query, count):
        plan = db.plan(query).plan
        icp = IncompletePlan(plan.aliases, plan.methods)
        variants = []
        for position in range(1, len(icp.methods) + 1):
            for method in ("hash", "merge", "nestloop"):
                if icp.methods[position - 1] == method:
                    continue
                edited = icp.override(position, method)
                variants.append((edited.order, edited.methods))
                if len(variants) == count:
                    return variants
        raise AssertionError("query too small for the requested variant count")

    def test_lru_keeps_recently_used_entries(self, tiny_db, bound_query):
        tiny_db._hint_cache.clear()
        old_capacity = tiny_db._hint_cache.capacity
        tiny_db._hint_cache.capacity = 3
        try:
            v = self._variants(tiny_db, bound_query, 4)
            for order, methods in v[:3]:
                tiny_db.plan_with_hints(bound_query, order, methods)
            assert len(tiny_db._hint_cache) == 3
            first_key = (bound_query.key(), tuple(v[0][0]), tuple(v[0][1]))
            second_key = (bound_query.key(), tuple(v[1][0]), tuple(v[1][1]))
            # Touch the oldest entry, then overflow: the LRU victim must be
            # the *second* entry, not the freshly-touched first.
            tiny_db.plan_with_hints(bound_query, v[0][0], v[0][1])
            tiny_db.plan_with_hints(bound_query, v[3][0], v[3][1])
            assert len(tiny_db._hint_cache) == 3
            assert first_key in tiny_db._hint_cache
            assert second_key not in tiny_db._hint_cache
        finally:
            tiny_db._hint_cache.capacity = old_capacity
            tiny_db._hint_cache.clear()

    def test_capacity_never_exceeded(self, tiny_db, bound_query):
        tiny_db._hint_cache.clear()
        old_capacity = tiny_db._hint_cache.capacity
        tiny_db._hint_cache.capacity = 2
        try:
            for order, methods in self._variants(tiny_db, bound_query, 4):
                tiny_db.plan_with_hints(bound_query, order, methods)
                assert len(tiny_db._hint_cache) <= 2
        finally:
            tiny_db._hint_cache.capacity = old_capacity
            tiny_db._hint_cache.clear()


class TestBatchMirrors:
    def test_plan_many_matches_plan(self, tiny_db, bound_query):
        singles = [tiny_db.plan(bound_query)]
        batch = tiny_db.plan_many([bound_query])
        assert plan_signature(batch[0].plan) == plan_signature(singles[0].plan)

    def test_plan_with_hints_many_matches_singletons(self, tiny_db, bound_query):
        plan = tiny_db.plan(bound_query).plan
        icp = IncompletePlan(plan.aliases, plan.methods)
        edited = icp.override(1, "merge" if icp.methods[0] != "merge" else "hash")
        requests = [
            (bound_query, icp.order, icp.methods),
            (bound_query, edited.order, edited.methods),
        ]
        batch = tiny_db.plan_with_hints_many(requests)
        singles = [tiny_db.plan_with_hints(*request) for request in requests]
        assert [plan_signature(r.plan) for r in batch] == [
            plan_signature(r.plan) for r in singles
        ]

    def test_execute_many_matches_execute(self, tiny_db, bound_query):
        plan = tiny_db.plan(bound_query).plan
        single = tiny_db.execute(bound_query, plan)
        half = tiny_db.execute(bound_query, plan, timeout_ms=single.latency_ms / 2)
        batch = tiny_db.execute_many(
            [(bound_query, plan, None), (bound_query, plan, single.latency_ms / 2)]
        )
        assert batch[0] == single
        assert batch[1] == half


class TestWorkloadSpec:
    def test_spec_rebuild_is_deterministic(self):
        spec = WorkloadSpec("job", scale=0.02, seed=5)
        first = spec.build_database()
        second = spec.build_database()
        sql = (
            "SELECT COUNT(*) FROM title AS t, movie_info AS mi "
            "WHERE mi.movie_id = t.id AND t.kind_id = 2;"
        )
        q1, q2 = first.sql(sql, name="spec_q"), second.sql(sql, name="spec_q")
        p1, p2 = first.plan(q1).plan, second.plan(q2).plan
        assert plan_signature(p1) == plan_signature(p2)
        assert first.execute(q1, p1).latency_ms == second.execute(q2, p2).latency_ms

    def test_spec_is_picklable(self):
        import pickle

        spec = WorkloadSpec("stack", scale=0.5, seed=9)
        assert pickle.loads(pickle.dumps(spec)) == spec


# ----------------------------------------------------------------------
# the statement cache behind sql()
# ----------------------------------------------------------------------
STATEMENT = (
    "SELECT COUNT(*) FROM title AS t, movie_info AS mi "
    "WHERE mi.movie_id = t.id AND t.kind_id = {};"
)


def plan_tree(plan):
    """Every planner-visible field of every node, floats as ``float.hex``."""
    nodes = []
    for node in iter_nodes(to_tree(plan)):
        estimates = (float(node.est_rows).hex(), float(node.est_cost).hex())
        if isinstance(node, ScanNode):
            shape = (node.alias, node.table, node.scan_type, node.index_column, node.filters)
        else:
            shape = (node.method, node.predicates)
        nodes.append(shape + estimates)
    return nodes


def query_state(query):
    """A deep snapshot of everything a bound query holds."""
    return copy.deepcopy(query.__dict__)


@pytest.fixture()
def fresh_db(tiny_db):
    """The module engine with every cache emptied before and after."""
    tiny_db.clear_caches()
    yield tiny_db
    tiny_db.clear_caches()


class TestStatementCache:
    def test_repeat_returns_the_same_object_and_name_is_part_of_the_key(self, fresh_db):
        text = STATEMENT.format(1)
        first = fresh_db.sql(text)
        assert fresh_db.sql(text) is first
        named = fresh_db.sql(text, name="q1")
        assert named is not first
        assert named.signature() == "q1"
        assert fresh_db.sql(text, name="q1") is named
        assert fresh_db.stats()["statement_cache"] == 2

    def test_signature_is_memoized_before_the_query_is_shared(self, fresh_db):
        assert "_signature" in fresh_db.sql(STATEMENT.format(1)).__dict__
        assert "_signature" in fresh_db.sql(STATEMENT.format(1), name="q1").__dict__

    @pytest.mark.parametrize(
        "text, error",
        [
            ("SELECT COUNT(*) FROM title AS t WHERE", ParseError),
            ("SELECT COUNT(*) FROM title AS t WHERE t.title = 'oops", ParseError),
            ("SELECT COUNT(*) FROM nope AS n;", BindError),
            ("SELECT COUNT(*) FROM title AS t, movie_info AS mi WHERE t.kind_id = 1;", BindError),
        ],
    )
    def test_failed_bind_is_never_stored(self, fresh_db, text, error):
        fresh_db.sql(STATEMENT.format(1))
        for _ in range(2):
            with pytest.raises(error):
                fresh_db.sql(text)
            assert fresh_db.stats()["statement_cache"] == 1

    def test_lru_evicts_oldest_and_a_read_refreshes_recency(self, fresh_db):
        old_capacity = fresh_db._statement_cache.capacity
        fresh_db._statement_cache.capacity = 3
        try:
            texts = [STATEMENT.format(i) for i in range(5)]
            bound = [fresh_db.sql(text) for text in texts[:3]]
            assert fresh_db.sql(texts[0]) is bound[0]  # 1 is now the oldest
            fresh_db.sql(texts[3])
            assert fresh_db.stats()["statement_cache"] == 3
            assert fresh_db.sql(texts[0]) is bound[0]
            assert fresh_db.sql(texts[2]) is bound[2]
            assert fresh_db.sql(texts[1]) is not bound[1]  # evicted, bound again
            for text in texts:
                fresh_db.sql(text)
                assert fresh_db.stats()["statement_cache"] <= 3
        finally:
            fresh_db._statement_cache.capacity = old_capacity

    def test_capacity_covers_the_serving_memo(self, tiny_db):
        # A plan-memo hit must never be preceded by a bind miss.
        assert tiny_db._statement_cache.capacity >= DEFAULT_MEMO_CAPACITY

    def _check_clearing(self, backend):
        """``backend.sql`` binds through its own statement cache, which
        only ``clear_caches`` empties."""
        text = STATEMENT.format(7)
        first = backend.sql(text)
        assert backend.sql(text) is first
        assert backend.stats()["statement_cache"] == 1
        if isinstance(backend, Database):
            backend.clear_plan_cache()
            assert backend.sql(text) is first
        backend.clear_caches()
        assert backend.stats()["statement_cache"] == 0
        again = backend.sql(text)
        assert again is not first
        assert again == first

    def test_clear_caches_empties_it_on_local(self, fresh_db):
        self._check_clearing(fresh_db)

    def test_clear_caches_empties_it_on_remote(self, fresh_db):
        server_db = WorkloadSpec("job", scale=0.02, seed=5).build_database()
        with EngineServer(server_db) as server:
            server.start()
            with RemoteBackend(server.url, timeout_s=60.0) as backend:
                self._check_clearing(backend)

    def test_eight_threads_binding_the_same_texts_share_equal_queries(self, fresh_db):
        texts = [STATEMENT.format(i) for i in range(16)]
        reference_db = WorkloadSpec("job", scale=0.02, seed=5).build_database()
        reference = [reference_db.sql(text) for text in texts]
        results = [None] * 8
        barrier = threading.Barrier(8)

        def bind_all(slot):
            barrier.wait(timeout=30)
            rounds = []
            for _ in range(20):
                rounds.append([fresh_db.sql(text) for text in texts])
            results[slot] = rounds

        threads = [threading.Thread(target=bind_all, args=(slot,)) for slot in range(8)]
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
        assert fresh_db.stats()["statement_cache"] == len(texts)
        for rounds in results:
            assert rounds is not None
            for queries in rounds:
                assert queries == reference
                assert [q.signature() for q in queries] == [q.signature() for q in reference]
        # After the race settles one object per text is left, and it plans
        # exactly as a backend that never saw a cache hit.
        for text, expected in zip(texts, reference):
            shared = fresh_db.sql(text)
            assert shared is fresh_db.sql(text)
            assert plan_tree(fresh_db.plan(shared).plan) == plan_tree(reference_db.plan(expected).plan)


# Three statements bound under one name: two join graphs, and the first's
# joins with another aggregate (the same plan signatures, other answers).
SAME_NAME = (
    "SELECT COUNT(*) FROM title AS t, movie_info AS mi WHERE mi.movie_id = t.id;",
    "SELECT COUNT(*) FROM title AS t, movie_keyword AS mk WHERE mk.movie_id = t.id;",
    "SELECT MIN(t.id) FROM title AS t, movie_info AS mi WHERE mi.movie_id = t.id;",
)


def expert_answers(db, query):
    """``query``'s expert plan, a hinted completion and the execution of
    the plan, computed past every engine cache."""
    space = db.enumerator.join_space(query)
    plan = db.enumerator.search(space, None)
    hint = (tuple(reversed(plan.aliases)), ("nestloop",))
    return plan, hint, space.complete(*hint), db.executor.execute(query, plan)


class TestStatementsSharingAName:
    """Statements bound under one name share a signature (the name), but no
    cache answers one of them with another's plan or result."""

    def check(self, backend, db, queries):
        assert {query.signature() for query in queries} == {"same"}
        for query in queries + queries:  # cold, then every cache warm
            plan, hint, hinted, result = expert_answers(db, query)
            assert backend.plan(query).plan == plan
            assert backend.plan_with_hints(query, *hint).plan == hinted
            executed = backend.execute(query, plan)
            assert (executed.output_rows, executed.aggregate_values) == (
                result.output_rows, result.aggregate_values,
            )

    def test_database(self, fresh_db):
        self.check(fresh_db, fresh_db, [fresh_db.sql(text, name="same") for text in SAME_NAME])

    def test_two_remote_clients_of_one_server(self, fresh_db):
        server_db = WorkloadSpec("job", scale=0.02, seed=5).build_database()
        with EngineServer(server_db) as server:
            server.start()
            with RemoteBackend(server.url, timeout_s=60.0) as first, \
                    RemoteBackend(server.url, timeout_s=60.0) as second:
                for client, text in zip((first, second, first), SAME_NAME):
                    self.check(client, fresh_db, [client.sql(text, name="same")])


class TestStatementCacheUnderTheService:
    @pytest.fixture(scope="class")
    def session(self, job_workload):
        """An untrained doctor over a private engine (the tests clear its caches)."""
        small = AAMConfig(
            d_model=32, d_embed=8, d_state=32, num_heads=2, num_layers=1, ff_hidden=32, epochs=1
        )
        session = FossSession.open(
            workload=job_workload,
            config=FossConfig(max_steps=3, seed=33, aam=small),
            backend=job_workload.spec.build_database(),
        )
        yield session
        session.close()

    def test_plans_equal_with_a_warm_statement_cache_and_after_clearing(self, session):
        sqls = [wq.sql for wq in session.workload.all_queries]
        backend = session.backend
        backend.clear_caches()
        cold = [plan_tree(session.service().optimize_sql(sql).plan) for sql in sqls]
        assert backend.stats()["statement_cache"] == len(set(sqls))
        # A new service has an empty memo, so every plan is made again, from
        # the cached statements this time.
        bound = [backend.sql(sql) for sql in sqls]
        warm = [plan_tree(session.service().optimize_sql(sql).plan) for sql in sqls]
        assert all(backend.sql(sql) is query for sql, query in zip(sqls, bound))
        backend.clear_caches()
        cleared = [plan_tree(session.service().optimize_sql(sql).plan) for sql in sqls]
        assert warm == cold
        assert cleared == cold

    def test_serving_never_writes_to_a_cached_query(self, session):
        sqls = [wq.sql for wq in session.workload.test[:4]]
        backend = session.backend
        backend.clear_caches()
        cached = [backend.sql(sql) for sql in sqls]
        before = [query_state(query) for query in cached]
        service = session.service(max_batch_size=len(sqls))
        for sql in sqls:
            service.optimize_sql(sql)
            service.execute_sql(sql)
        ticketed = session.service(max_batch_size=len(sqls))
        tickets = [ticketed.submit(sql) for sql in sqls]
        assert all(ticketed.result(ticket).ok for ticket in tickets)
        session.optimizer().optimize_many(sqls)
        assert all(backend.sql(sql) is query for sql, query in zip(sqls, cached))
        assert [query_state(query) for query in cached] == before
