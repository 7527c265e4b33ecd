"""The expert engine: optimizer + executor behind one facade.

:class:`Database` plays PostgreSQL's role from the paper: it produces the
original plan (``Γp(Q, /)``), completes hinted incomplete plans
(``Γp(Q, ICP)``, via the `pg_hint_plan` equivalent), and executes plans with
the dynamic-timeout mechanism (``Ψp``).  Both planning calls, and the
constructive baselines, read one :class:`~repro.optimizer.dp.JoinSpace` per
statement (:meth:`~repro.sql.ast.Query.key`), built on first use and dropped
with the plan cache; the expert DP's level arrays read one skeleton per join
graph the same way.

Because virtual-time execution is deterministic, executed latencies are
cached by statement and plan signature; a cached latency above a requested
timeout is reported as a timeout without re-running, mirroring how the
paper's training loop avoids re-executing known plans.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.catalog.catalog import Catalog
from repro.catalog.schema import Schema
from repro.catalog.statistics import StatisticsCatalog
from repro.engine.context import RequestContext
from repro.engine.memo import Memo
from repro.engine.wire import crc32_chain
from repro.executor.engine import ExecutionEngine, ExecutionResult
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel, CostParameters, runtime_cost_parameters
from repro.optimizer.dp import JoinSpace, OptimizerOptions, PlanEnumerator
from repro.optimizer.plans import Plan, explain, plan_signature
from repro.sql.ast import Query, StatementKey
from repro.sql.binder import bind_query
from repro.sql.parser import parse_query
from repro.storage.database import StorageDatabase

# Executions are always run under this internal cap so that catastrophic
# plans cannot consume unbounded real compute; latencies at the cap are
# treated as "at least this much".
HARD_CAP_MS = 15_000.0

# Memo capacities: bound statements, plans and join spaces; hint completions;
# the DP's join-graph skeletons (JOB has 15 graphs on the level arrays).
STATEMENT_CACHE_CAPACITY = 8192
HINT_CACHE_CAPACITY = 200_000
DP_SKELETON_CAPACITY = 32


def context_expired(ctx: Optional[RequestContext]) -> bool:
    """Whether a request context's deadline budget has run out.

    ``None`` means "no context" and never expires.
    """
    return ctx is not None and ctx.expired()


@dataclass
class Dataset:
    """A generated benchmark database: schema + loaded storage."""

    name: str
    schema: Schema
    storage: StorageDatabase


def dataset_fingerprint(dataset: Dataset) -> str:
    """A deterministic content fingerprint of a dataset's stored tables.

    CRC32 chained over table names, column names, raw column bytes and
    string dictionaries, in sorted order — never builtin ``hash()``, which
    varies with ``PYTHONHASHSEED``.  Two datasets built from the same
    :class:`~repro.workloads.base.WorkloadSpec` by the same code get the
    same fingerprint; datagen drift changes it.  It is the
    :class:`~repro.catalog.catalog.Catalog`'s fingerprint, which
    ``FossSession.load`` holds to the checkpoint's and a remote client
    holds every reconnect's handshake to.

    Uses the same length-prefixed crc32 chaining as the socket wire format
    (:func:`repro.engine.wire.crc32_chain`): bare concatenation would let
    distinct datasets collide (e.g. dictionaries ["ab","c"] vs ["a","bc"]).
    """
    chain = crc32_chain
    crc = 0
    storage = dataset.storage
    for table_name in sorted(storage.table_names):
        table = storage.table(table_name)
        crc = chain(crc, table_name.encode("utf-8"))
        for column_name in sorted(table.column_names):
            data = table.column_data(column_name)
            crc = chain(crc, column_name.encode("utf-8"))
            crc = chain(crc, str(data.values.dtype).encode("utf-8"))
            crc = chain(crc, np.ascontiguousarray(data.values).tobytes())
            if data.dictionary is not None:
                for entry in data.dictionary:
                    crc = chain(crc, str(entry).encode("utf-8"))
    return f"crc32:{crc & 0xFFFFFFFF:08x}:rows={storage.total_rows()}"


def bind_statement(catalog: Catalog, text: str, name: str = "") -> Query:
    """``text`` parsed and bound over ``catalog``.

    The query records ``text`` (:meth:`Query.sql_text`), which is what the
    remote wire sends for it.
    """
    query = bind_query(parse_query(text), catalog, name=name)
    query._text = text  # before publishing, like the signature memo
    return query


def plan_key(query: Query, options: Optional[OptimizerOptions]) -> Tuple[str, ...]:
    """The plan-cache key of ``query`` under ``options``.

    The optimizer plans ``None`` as ``OptimizerOptions()``, so options equal
    to the defaults share the bare statement key: Bao's all-methods arm and
    an unoptioned ``plan`` are one cache entry, not two DP runs.
    """
    if options is None or options == OptimizerOptions():
        return query.key()
    return query.key() + (options.signature(),)


@dataclass
class PlanningResult:
    """A plan plus the wall-clock time the optimizer spent producing it."""

    plan: Plan
    planning_ms: float


@dataclass
class _CachedLatency:
    latency_ms: float
    output_rows: int
    capped: bool
    cap_ms: float = HARD_CAP_MS
    aggregate_values: Tuple[float, ...] = ()


class Database:
    """Expert engine over a generated dataset."""

    def __init__(
        self,
        dataset: Dataset,
        planner_cost_params: Optional[CostParameters] = None,
        runtime_cost_params: Optional[CostParameters] = None,
        analyze_sample_rows: int = 2_000,
        analyze_seed: int = 31,
    ) -> None:
        self.dataset = dataset
        self.storage = dataset.storage
        # The optimizer costs plans with the (miscalibrated) planner
        # defaults; the executor charges the true runtime parameters.  See
        # runtime_cost_parameters() for why they differ.
        self.cost_model = CostModel(planner_cost_params)
        self.runtime_cost_model = CostModel(
            runtime_cost_params if runtime_cost_params is not None else runtime_cost_parameters()
        )
        # All the metadata anything above the engine reads, built once.
        self.catalog = Catalog.of(
            dataset.schema,
            self.storage,
            StatisticsCatalog.analyze(self.storage, sample_rows=analyze_sample_rows, seed=analyze_seed),
            dataset_fingerprint(dataset),
        )
        self.estimator = CardinalityEstimator(self.catalog.statistics)
        self._dp_skeletons: Memo[tuple, object] = Memo(DP_SKELETON_CAPACITY)
        self.enumerator = PlanEnumerator(
            self.estimator, self.cost_model, self.catalog.has_index, self._dp_skeletons
        )
        self.executor = ExecutionEngine(self.storage, self.runtime_cost_model)
        # The memos are shared by concurrent serving threads (OptimizerService
        # flushers, multi-tenant sessions over one shared engine).  Heavy
        # compute — bind, enumeration, hint completion — runs outside their
        # locks: it is stateless over the immutable dataset/statistics, so a
        # concurrent duplicate computes an identical result and the first
        # insert wins.
        # (text, name) -> bound query.  Sized above the serving memo's
        # default capacity (4096), so a plan-memo hit is never preceded by a
        # bind miss; plans and join spaces, keyed by statement, share the
        # size: a long-lived engine sees new queries forever.
        self._statement_cache: Memo[Tuple[str, str], Query] = Memo(STATEMENT_CACHE_CAPACITY)
        self._plan_cache: Memo[Tuple[str, ...], PlanningResult] = Memo(STATEMENT_CACHE_CAPACITY)
        self._join_spaces: Memo[StatementKey, JoinSpace] = Memo(STATEMENT_CACHE_CAPACITY)
        # Exploration visits new ICPs forever, and completed plan trees are
        # too heavy to keep unboundedly, but a hot training loop must not
        # lose its entire working set at the cliff.
        self._hint_cache: Memo[Tuple[StatementKey, Tuple[str, ...], Tuple[str, ...]], PlanningResult] = (
            Memo(HINT_CACHE_CAPACITY)
        )
        self._latency_cache: Dict[Tuple[StatementKey, str], _CachedLatency] = {}
        self.executions = 0  # real-environment execution counter (cache misses)
        # Guards the execution counter and the latency cache; execution runs
        # outside it, like every computation here.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # SQL entry point
    # ------------------------------------------------------------------
    def sql(self, text: str, name: str = "") -> Query:
        """Parse + bind SQL text over this database's catalog, once per (text, name).

        Bound queries are kept in an LRU statement cache, so a repeated
        statement costs one dict lookup and every caller of the same text
        shares one read-only :class:`Query`.  Lex/parse/bind is a pure
        function over the immutable catalog and runs outside the memo's
        lock, so serving threads bind concurrently with planning (two
        threads missing the same text both bind, and the first insert wins).
        A text that fails to parse or bind is not stored and raises again.
        """
        key = (text, name)
        query = self._statement_cache.get(key)
        if query is not None:
            return query
        return self._statement_cache.put(key, bind_statement(self.catalog, text, name))

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def join_space(self, query: Query) -> JoinSpace:
        """The query's join search space under this engine's expert.

        Built once per statement and cache epoch, outside the lock
        like every computation here (a concurrent miss builds twice and the
        first insert wins); immutable, so every caller shares it.
        """
        key = query.key()
        space = self._join_spaces.get(key)
        if space is not None:
            return space
        return self._join_spaces.put(key, self.enumerator.join_space(query))

    def plan(
        self,
        query: Query,
        options: Optional[OptimizerOptions] = None,
    ) -> PlanningResult:
        """``Γp(Q, /)``: the expert optimizer's plan for the query.

        The expert is deterministic, so plans are cached per statement and
        options; the cached wall time is the first run's,
        including the join space's build if that run built it.
        """
        key = plan_key(query, options)
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached
        start = time.perf_counter()
        plan = self.enumerator.search(self.join_space(query), options)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return self._plan_cache.put(key, PlanningResult(plan=plan, planning_ms=elapsed_ms))

    def plan_with_hints(
        self,
        query: Query,
        join_order: Sequence[str],
        join_methods: Sequence[str],
    ) -> PlanningResult:
        """``Γp(Q, ICP)``: complete an incomplete plan into an executable one.

        Completion is deterministic, so results are memoized by
        (query, join order, join methods); episode loops revisit the same
        one-step edits constantly and the cached wall time is the first
        run's.
        """
        key = (query.key(), tuple(join_order), tuple(join_methods))
        cached = self._hint_cache.get(key)
        if cached is not None:
            return cached
        start = time.perf_counter()
        plan = self.join_space(query).complete(join_order, join_methods)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return self._hint_cache.put(key, PlanningResult(plan=plan, planning_ms=elapsed_ms))

    def plan_many(
        self,
        queries: Sequence[Query],
        options: Optional[OptimizerOptions] = None,
        ctxs=None,
    ) -> List[Optional[PlanningResult]]:
        """Batch mirror of :meth:`plan` (a remote backend ships it as one frame).

        ``ctxs`` (aligned with ``queries``) opts into per-item deadline
        checks: an item whose context expired — checked immediately before
        its slice of work, so budgets burning out mid-batch drop the tail —
        yields ``None`` in its slot instead of a result.  Callers that pass
        ``ctxs`` must check; without ``ctxs`` the batch is unchanged.
        """
        if ctxs is None:
            return [self.plan(query, options) for query in queries]
        if len(ctxs) != len(queries):
            raise ValueError(f"ctxs length {len(ctxs)} != queries length {len(queries)}")
        with obs.span_for_ctxs(
            "engine.batch", ctxs, attrs={"op": "plan_many", "batch": len(queries)}
        ):
            return [
                None if context_expired(ctx) else self.plan(query, options)
                for query, ctx in zip(queries, ctxs)
            ]

    def plan_with_hints_many(
        self, requests: Sequence[Tuple[Query, Sequence[str], Sequence[str]]]
    ) -> List[PlanningResult]:
        """Batch mirror of :meth:`plan_with_hints` for episode cohorts."""
        return [
            self.plan_with_hints(query, join_order, join_methods)
            for query, join_order, join_methods in requests
        ]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self,
        query: Query,
        plan: Plan,
        timeout_ms: Optional[float] = None,
    ) -> ExecutionResult:
        """``Ψp``: execute the plan, honouring the dynamic timeout.

        Deterministic virtual time lets results be cached; a cached latency
        above ``timeout_ms`` is reported as a timeout.
        """
        key = (query.key(), plan_signature(plan))
        internal_cap = min(HARD_CAP_MS, timeout_ms) if timeout_ms is not None else HARD_CAP_MS

        with self._lock:
            cached = self._latency_cache.get(key)
            # A cached entry is reusable if it finished (not capped) or if it
            # was capped at or above the cap we would use now.
            reusable = cached is not None and (not cached.capped or cached.cap_ms >= internal_cap)
        if not reusable:
            # Execution runs outside the lock: it is the heaviest entry
            # point and touches only per-call state (the lazy index build
            # in storage is idempotent and deterministic), so holding the
            # lock here would stall every concurrent bind/plan for no
            # consistency gain.  Two threads missing the same key both
            # execute and cache identical results.
            raw = self.executor.execute(query, plan, timeout_ms=internal_cap)
            cached = _CachedLatency(
                latency_ms=raw.latency_ms if not raw.timed_out else internal_cap,
                output_rows=raw.output_rows,
                capped=raw.timed_out,
                cap_ms=internal_cap,
                aggregate_values=raw.aggregate_values,
            )
            with self._lock:
                self.executions += 1
                self._latency_cache[key] = cached

        if timeout_ms is not None and cached.latency_ms >= timeout_ms:
            return ExecutionResult(
                latency_ms=timeout_ms, output_rows=0, timed_out=True, work_units=0.0
            )
        return ExecutionResult(
            latency_ms=cached.latency_ms,
            output_rows=cached.output_rows,
            timed_out=cached.capped,
            work_units=cached.latency_ms * self.runtime_cost_model.params.work_units_per_ms,
            aggregate_values=cached.aggregate_values,
        )

    def execute_many(
        self, requests: Sequence[Tuple[Query, Plan, Optional[float]]]
    ) -> List[ExecutionResult]:
        """Batch mirror of :meth:`execute`: (query, plan, timeout_ms) triples."""
        return [
            self.execute(query, plan, timeout_ms=timeout_ms)
            for query, plan, timeout_ms in requests
        ]

    def original_latency(self, query: Query) -> float:
        """Latency of the expert's own plan (cached)."""
        planning = self.plan(query)
        return self.execute(query, planning.plan).latency_ms

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def explain(self, plan: Plan) -> str:
        return explain(plan)

    def clear_caches(self) -> None:
        self._statement_cache.clear()
        with self._lock:
            self._latency_cache.clear()
        self.clear_plan_cache()

    def clear_plan_cache(self) -> None:
        """Drop every planning memo: expert plans, hint completions, join
        spaces and the DP's join-graph skeletons (bound queries and
        latencies stay; used for timing studies)."""
        self._dp_skeletons.clear()
        self._join_spaces.clear()
        self._plan_cache.clear()
        self._hint_cache.clear()

    def stats(self) -> Dict[str, float]:
        """Engine counters: executions are real-environment cache misses."""
        return {
            "backend": "local",
            "executions": self.executions,
            "join_spaces": len(self._join_spaces),
            "dp_skeletons": len(self._dp_skeletons),
            "plan_cache": len(self._plan_cache),
            "hint_cache": len(self._hint_cache),
            "latency_cache": len(self._latency_cache),
            "statement_cache": len(self._statement_cache),
        }
