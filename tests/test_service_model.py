"""A stateful model of ``OptimizerService``: the books always balance.

Hypothesis drives one service through random interleavings of the
public surface — ``submit`` (with and without a deadline),
``optimize_sql``, ``flush``, ``wait``, ``start``, ``stop`` — plus three
environment moves: the injected clock jumps past every deadline, the
stub optimizer starts failing (typed ``OptimizeError`` or an unexpected
``RuntimeError``) or heals, and the memo and results store are drawn
small enough to evict.  After every step:

* ``requests == served + failures + expired``, and with no flusher
  running ``requests + pending`` equals the number of requests made;
* after a ``stop()`` no flusher thread the service started is alive.

At teardown every ticket issued resolves (a plan identical to the
stub's precomputed one, a failure or an expiry) or raises
:class:`TicketEvictedError`, and every request made is accounted for.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro import obs
from repro.api import (
    OptimizedPlan,
    OptimizeError,
    OptimizerService,
    PlanTicket,
    TicketEvictedError,
)
from repro.api.service import _HIT_SAMPLE_EVERY
from repro.engine.context import deadline_error

CRASH = "stub optimizer crashed"
BAD_SQL = "SELECT COUNT(*) FROM no_such_table AS x WHERE x.c = 1"
WAIT_S = 30.0  # bounds every blocking wait; a hang fails instead of wedging tier-1
FLUSHER = "optimizer-service-flusher"
QUERIES = st.integers(0, 4)  # four bound queries and one unbindable text
DEADLINES = st.sampled_from([None, 0.0, 5.0])  # none, already spent, live


class SettableClock:
    """A monotonic clock the model moves by hand."""

    def __init__(self) -> None:
        self.t = 1_000.0

    def now(self) -> float:
        return self.t


class StubOptimizer:
    """Serves precomputed plans by signature; can be told to fail.

    ``mode`` is ``"ok"``, ``"typed"`` (every query raises
    ``OptimizeError``) or ``"crash"`` (every call raises a bare
    ``RuntimeError``).  Expired contexts get a ``DeadlineExceededError``
    slot, as the real optimizer's ``optimize_many`` does.
    """

    def __init__(self, plans: Dict[str, OptimizedPlan], clock: SettableClock) -> None:
        self.plans = plans
        self.clock = clock
        self.mode = "ok"

    def optimize_many(self, queries, ctxs=None) -> List[object]:
        if self.mode == "crash":
            raise RuntimeError(CRASH)
        if self.mode == "typed":
            raise OptimizeError("stub optimizer refuses")
        outcomes: List[object] = []
        for index, query in enumerate(queries):
            ctx = None if ctxs is None else ctxs[index]
            if ctx is not None and ctx.expired(self.clock.now()):
                outcomes.append(deadline_error(ctx, "planning"))
            else:
                outcomes.append(self.plans[query.signature()])
        return outcomes

    def optimize(self, query, ctx=None) -> OptimizedPlan:
        outcome = self.optimize_many([query], None if ctx is None else [ctx])[0]
        if isinstance(outcome, OptimizeError):
            raise outcome
        return outcome


def crashed(exc: BaseException) -> bool:
    return type(exc) is RuntimeError and str(exc) == CRASH


def flusher_threads() -> set:
    return {t for t in threading.enumerate() if t.name == FLUSHER and t.is_alive()}


class ServiceModel(RuleBasedStateMachine):
    backend = None  # set by the test: a real engine to bind SQL against
    plans: Dict[str, OptimizedPlan] = {}  # sql -> the plan the stub serves

    @initialize(
        memo=st.integers(0, 2),
        results=st.integers(1, 3),
        batch=st.integers(1, 3),
    )
    def build(self, memo: int, results: int, batch: int) -> None:
        self.sqls = sorted(self.plans) + [BAD_SQL]
        self.clock = SettableClock()
        self.optimizer = StubOptimizer(
            {self.backend.sql(sql).signature(): plan for sql, plan in self.plans.items()},
            self.clock,
        )
        self.service = OptimizerService(
            self.optimizer,
            self.backend,
            max_batch_size=batch,
            memo_capacity=memo,
            results_capacity=results,
            flush_interval_ms=1.0,
            clock=self.clock,
        )
        self.made = 0
        self.tickets: List[Tuple[PlanTicket, str]] = []
        self.foreign_flushers: Optional[set] = None

    # -- helpers -------------------------------------------------------
    def guarded(self, call, *args, **kwargs):
        """Run a call that may flush inline: a crashing optimizer's
        ``RuntimeError`` is the one exception allowed to escape."""
        try:
            return call(*args, **kwargs)
        except RuntimeError as exc:
            if not crashed(exc):
                raise
            return None

    def check_result(self, ticket: PlanTicket, sql: str) -> None:
        try:
            result = self.service.wait(ticket, timeout=WAIT_S)
        except TicketEvictedError:
            return
        assert result.ticket_id == ticket.ticket_id and result.sql == sql
        assert result.status in ("done", "failed", "expired"), result.status
        if result.ok:
            assert result.plan is self.plans[sql]
            assert result.error is None
        else:
            assert result.plan is None and result.error
            assert not result.cached
        if sql == BAD_SQL:
            assert not result.ok

    # -- rules ---------------------------------------------------------
    @rule(pick=QUERIES, deadline=DEADLINES)
    def submit(self, pick: int, deadline: Optional[float]) -> None:
        sql = self.sqls[pick]
        self.made += 1
        ticket = self.guarded(self.service.submit, sql, deadline_s=deadline)
        if ticket is not None:  # a crashing inline flush swallows the handle
            self.tickets.append((ticket, sql))

    @rule(pick=QUERIES, deadline=DEADLINES)
    def optimize_sql(self, pick: int, deadline: Optional[float]) -> None:
        sql = self.sqls[pick]
        self.made += 1
        try:
            plan = self.service.optimize_sql(sql, deadline_s=deadline)
        except OptimizeError:
            return  # typed: bad SQL, a refusing optimizer or an expiry
        except RuntimeError as exc:
            assert crashed(exc), exc
            return
        assert sql != BAD_SQL
        assert plan is self.plans[sql]

    @rule()
    def flush(self) -> None:
        self.guarded(self.service.flush)

    @rule(data=st.data())
    def wait(self, data) -> None:
        if not self.tickets:
            return
        ticket, sql = data.draw(st.sampled_from(self.tickets))
        self.guarded(self.check_result, ticket, sql)

    @rule()
    def start(self) -> None:
        if not self.service.started:
            self.foreign_flushers = flusher_threads()
        self.service.start()
        assert self.service.started

    @rule()
    def stop(self) -> None:
        self.guarded(self.service.stop)
        assert not self.service.started
        if self.foreign_flushers is not None:
            assert flusher_threads() <= self.foreign_flushers

    @rule()
    def expire(self) -> None:
        self.clock.t += 10.0  # past every 5 s budget already minted

    @rule(mode=st.sampled_from(["ok", "typed", "crash"]))
    def set_optimizer(self, mode: str) -> None:
        self.optimizer.mode = mode

    # -- invariants ----------------------------------------------------
    @invariant()
    def books_balance(self) -> None:
        stats = self.service.stats()
        assert stats["requests"] == stats["served"] + stats["failures"] + stats["expired"]
        if self.service.started:
            assert stats["requests"] + stats["pending"] <= self.made
        else:
            assert stats["requests"] + stats["pending"] == self.made, stats

    def teardown(self) -> None:
        service = getattr(self, "service", None)
        if service is None:
            return
        self.optimizer.mode = "ok"
        service.stop()
        if self.foreign_flushers is not None:
            assert flusher_threads() <= self.foreign_flushers
        for ticket, sql in self.tickets:
            self.check_result(ticket, sql)
        stats = service.stats()
        assert stats["pending"] == 0
        assert stats["requests"] == self.made


@pytest.fixture(scope="module")
def model_plans(job_workload) -> Dict[str, OptimizedPlan]:
    """Four bound JOB queries and a distinct precomputed plan for each."""
    database = job_workload.database
    return {
        wq.sql: OptimizedPlan(database.plan(wq.query).plan, 0.0, 1, 0)
        for wq in job_workload.train[:4]
    }


def test_unexpected_optimizer_error_is_counted_on_both_paths(job_workload, model_plans):
    """A crashing optimizer fails one ticket and one sync request: both
    count as failures, and the sync caller still sees the exception."""
    backend = job_workload.database
    clock = SettableClock()
    optimizer = StubOptimizer(
        {backend.sql(sql).signature(): plan for sql, plan in model_plans.items()}, clock
    )
    optimizer.mode = "crash"
    service = OptimizerService(optimizer, backend, clock=clock)
    sql = sorted(model_plans)[0]
    ticket = service.submit(sql)
    with pytest.raises(RuntimeError, match=CRASH):
        service.flush()
    assert service.result(ticket).status == "failed"
    with pytest.raises(RuntimeError, match=CRASH):
        service.optimize_sql(sql)
    stats = service.stats()
    assert (stats["requests"], stats["served"], stats["failures"]) == (2, 0, 2)


def test_service_model(job_workload, model_plans):
    class Model(ServiceModel):
        backend = job_workload.database
        plans = model_plans

    run_state_machine_as_test(
        Model, settings=settings(max_examples=50, stateful_step_count=25, deadline=None)
    )


def tenant_series(name: str, tenant: str) -> float:
    """The value of the one series of ``name`` labelled ``tenant``
    (a histogram's observation count)."""
    [child] = [child for labels, child in obs.get_registry().get(name).series()
               if labels["tenant"] == tenant]
    return child.count if name.endswith("_ms") else child.value


def test_concurrent_books_match_the_registry(job_workload):
    """Two threads of sync hits beside ticketed hits and misses on a
    started service: every request is counted once, and the registry's
    series read exactly what ``stats()`` reads."""
    backend = job_workload.database
    plans = {wq.sql: OptimizedPlan(backend.plan(wq.query).plan, 0.0, 1, 0)
             for wq in job_workload.train[:12]}
    optimizer = StubOptimizer(
        {backend.sql(sql).signature(): plan for sql, plan in plans.items()}, SettableClock()
    )
    service = OptimizerService(optimizer, backend, max_batch_size=4, tenant="books")
    sqls = sorted(plans)
    warm, cold = sqls[:2], sqls[2:]
    for sql in warm:
        service.optimize_sql(sql)
    per_client = 3 * _HIT_SAMPLE_EVERY
    served: List[bool] = []

    def client(offset: int) -> None:
        for index in range(per_client):
            sql = warm[(index + offset) % 2]
            served.append(service.optimize_sql(sql) is plans[sql])

    with service.start():
        threads = [threading.Thread(target=client, args=(offset,)) for offset in (0, 1)]
        for thread in threads:
            thread.start()
        tickets = [service.submit(sql) for sql in cold + warm + cold]
        results = [service.wait(ticket, timeout=WAIT_S) for ticket in tickets]
        for thread in threads:
            thread.join(WAIT_S)
    assert all(served) and len(served) == 2 * per_client
    assert all(result.ok and result.plan is plans[result.sql] for result in results)
    stats = service.stats()
    assert stats["requests"] == stats["served"] + stats["failures"] + stats["expired"]
    assert stats["requests"] == len(warm) + 2 * per_client + len(tickets)
    assert stats["cache_misses"] == len(warm) + len(cold)
    for name, key in (
        ("serving_cache_hits_total", "cache_hits"),
        ("serving_cache_misses_total", "cache_misses"),
        ("serving_failures_total", "failures"),
        ("serving_expired_total", "expired"),
        ("serving_batches_total", "batches"),
        ("serving_batch_occupancy_max", "max_batch_occupancy"),
    ):
        assert tenant_series(name, "books") == stats[key], name


def test_latency_takes_one_hit_in_64(job_workload, model_plans):
    """``serving_latency_ms`` observes every timed miss, failure and
    expiry, as it always has, and only every 64th hit: sync hits and
    riders on a cohort's first request share the one count."""
    backend = job_workload.database
    clock = SettableClock()
    optimizer = StubOptimizer(
        {backend.sql(sql).signature(): plan for sql, plan in model_plans.items()}, clock
    )
    service = OptimizerService(optimizer, backend, clock=clock, tenant="sampled")
    a, b, c, d = sorted(model_plans)

    def observed() -> int:
        return tenant_series("serving_latency_ms", "sampled")

    service.optimize_sql(a)  # a miss
    assert observed() == 1
    for _ in range(2 * _HIT_SAMPLE_EVERY + 2):
        service.optimize_sql(a)  # hits 1..130
    assert observed() == 1 + 2
    for _ in range(3):
        service.submit(b)
    service.flush()  # one miss and two riders, hits 131 and 132
    assert observed() == 1 + 2 + 1
    service.submit(c, deadline_s=5.0)
    clock.t += 10.0
    service.flush()  # expired while queued
    optimizer.mode = "typed"
    service.submit(d)
    service.flush()  # a failure
    optimizer.mode = "ok"
    assert observed() == 1 + 2 + 1 + 2
    for _ in range(3 * _HIT_SAMPLE_EVERY - 132):
        service.optimize_sql(a)  # up to hit 192
    stats = service.stats()
    assert (stats["cache_hits"], stats["cache_misses"], stats["expired"], stats["failures"]) \
        == (3 * _HIT_SAMPLE_EVERY, 2, 1, 1)
    assert observed() == 2 + 1 + 1 + stats["cache_hits"] // _HIT_SAMPLE_EVERY
