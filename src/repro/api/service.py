"""Request/response serving over any optimizer: SQL text in, plan out.

``OptimizerService`` is the deployment surface of the plan doctor: ``submit``
SQL text and redeem the :class:`PlanTicket` with ``result`` or ``wait``
(queued requests are micro-batched through ``optimize_many``, inline or by
the ``start``-ed flusher), or call the synchronous ``optimize_sql`` /
``execute_sql``.  Every request is one ``_Pending`` record, and records pass
through five stages, each acting on a list of them:

1. **take** — slice up to ``max_batch_size`` records off the queue,
   higher priorities first (the sync path is a cohort of one and skips it);
2. **drop-expired** — a request whose ``deadline_s`` budget ran out while
   queued resolves as ``"expired"`` and never reaches the optimizer;
3. **dedup/memo** — a memoized signature is answered from the plan memo
   (bounded LRU) and repeats of one signature ride on its first request;
4. **optimize** — one ``optimize_many`` call for the unique misses;
5. **settle** — the one place a request is counted, timed, closed and
   handed back: a :class:`TicketResult` for a ticket, a return or a raise
   for a sync caller.

The memo is also consulted at the door, right after binding: a memoized
``submit`` is born resolved, and a sync hit returns without a record.  Bad
SQL surfaces as one typed :class:`~repro.engine.context.OptimizeError`; an
unexpected exception fails every unresolved record of its cohort and then
propagates.  A ticket's :class:`~repro.engine.context.RequestContext`
carries its deadline, priority and trace; the stamps ``enqueue → flush →
engine → done`` land on ``TicketResult.trace`` and the stage percentiles
of ``stats``.  A context never changes a plan, and plans served under
concurrency are bitwise-identical to the single-threaded path.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.api.context import AdmissionRejectedError
from repro.core.inference import OptimizedPlan, bind_sql
from repro.engine.backend import EngineBackend
from repro.engine.context import (
    CLOCK,
    DeadlineExceededError,
    MonotonicClock,
    OptimizeError,
    RequestContext,
    deadline_error,
)
from repro.executor.engine import ExecutionResult
from repro.sql.ast import Query, StatementKey

DEFAULT_MAX_BATCH_SIZE = 32
DEFAULT_MEMO_CAPACITY = 4096
DEFAULT_RESULTS_CAPACITY = 10_000  # redeemed-or-not ticket outcomes kept
DEFAULT_FLUSH_INTERVAL_MS = 2.0  # background flusher time trigger
_LATENCY_WINDOW = 10_000  # per-request latencies kept for percentile stats
# serving_latency_ms takes every request but memo hits, of which it takes
# the hits whose number is a multiple of this: a hit costs a few
# microseconds and an observation a third of that.
_HIT_SAMPLE_EVERY = 64
# result() only blocks on another thread's in-flight flush; the bound turns
# a deadlocked flusher into a loud TimeoutError instead of a hang.
_RESULT_WAIT_S = 60.0
# Stage durations between two stamps of a ticket's trace, recorded when the
# request reached both: queued, inside the optimizer, finalizing, end to end.
_STAGES = {
    "queue": ("enqueue", "flush"),
    "engine": ("flush", "engine"),
    "finalize": ("engine", "done"),
    "total": ("enqueue", "done"),
}
# Tally key -> (registry counter, help); the service keeps each as an int.
_COUNTERS = {
    "hits": ("serving_cache_hits_total", "requests served from the plan memo"),
    "misses": ("serving_cache_misses_total", "requests that cost an optimization"),
    "failures": ("serving_failures_total", "requests that failed (bind/optimize errors)"),
    "expired": ("serving_expired_total", "requests dropped after their deadline budget ran out"),
    "rejected": ("serving_rejected_total", "submits refused by admission control"),
    "evicted": ("serving_results_evicted_total", "ticket outcomes aged out unredeemed"),
    "batches": ("serving_batches_total", "optimizer micro-batches flushed"),
    "occupancy": ("serving_batch_occupancy_sum", "total unique queries across all batches"),
}
# Each service gets its own label value in the process-global registry, so
# two services never read each other's series.
_service_serial = itertools.count()


class TicketEvictedError(ValueError):
    """The ticket was served, but its outcome aged out of the bounded
    results store before it was redeemed: raise ``results_capacity`` or
    redeem sooner.  Distinct from the plain ``ValueError`` of a never-issued
    ticket id, which it subclasses so callers treating both alike still work.
    """


@dataclass(frozen=True)
class PlanTicket:
    """A handle for one submitted request; redeem with ``result(ticket)``."""

    ticket_id: int
    sql: str
    context: Optional[RequestContext] = None


@dataclass
class TicketResult:
    """The outcome of one submitted request.

    ``trace`` maps each lifecycle stage the request reached (``enqueue``,
    ``flush``, ``engine``, ``done``) to its monotonic timestamp.
    """

    ticket_id: int
    sql: str
    status: str  # "done" | "failed" | "expired"
    plan: Optional[OptimizedPlan] = None
    error: Optional[str] = None
    cached: bool = False
    context: Optional[RequestContext] = None
    trace: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "done"

    @property
    def expired(self) -> bool:
        return self.status == "expired"


class _Pending:
    """One request on its way through the stages.

    ``ticket_id`` and ``trace`` are ``None`` on the sync path.  ``outcome``
    stays ``None`` until a stage resolves the request with an
    :class:`OptimizedPlan` (``cached`` if it came from the memo or rode on
    an earlier request of its statement) or the exception it fails with.
    ``span`` is the open root span of a traced request.
    """

    __slots__ = ("ticket_id", "sql", "ctx", "trace", "span", "query", "key", "outcome", "cached")

    def __init__(self, ticket_id, sql, ctx, trace=None, span=None, query=None, outcome=None):
        self.ticket_id = ticket_id
        self.sql = sql
        self.ctx = ctx
        self.trace = trace
        self.span = span
        self.query = query
        self.key = None if query is None else query.key()
        self.outcome = outcome
        self.cached = False


def _series(service: "OptimizerService"):
    """Register the service's series: its latency and stage windows, and
    counters and an occupancy gauge that read its tallies.

    The series hold the service by a weak reference only, and leave the
    registry when it is collected.
    """
    registry = obs.get_registry()
    labels = {"tenant": service.tenant or "default", "service": f"svc{next(_service_serial)}"}
    names = tuple(labels)
    ref = weakref.ref(service)

    def reader(key: str):
        def read() -> int:
            alive = ref()
            return 0 if alive is None else alive._tally[key]
        return read

    tallied = [(registry.counter(series, help_text, names), key)
               for key, (series, help_text) in _COUNTERS.items()]
    tallied.append((registry.gauge(
        "serving_batch_occupancy_max", "largest batch flushed so far", names
    ), "occupancy_max"))
    for metric, key in tallied:
        metric.labels(**labels).set_function(reader(key))
    latency = registry.histogram(
        "serving_latency_ms", "per-request optimization latency", names, window=_LATENCY_WINDOW
    )
    stages = registry.histogram(
        "serving_stage_ms", "lifecycle stage durations (queue/engine/finalize/total)",
        ("stage",) + names, window=_LATENCY_WINDOW,
    )
    owned = [(metric, labels) for metric, _ in tallied] + [(latency, labels)]
    owned += [(stages, {"stage": stage, **labels}) for stage in _STAGES]
    weakref.finalize(service, _remove_series, owned)
    return latency.labels(**labels), {s: stages.labels(stage=s, **labels) for s in _STAGES}


def _remove_series(owned) -> None:
    for metric, labels in owned:
        metric.remove(**labels)


class OptimizerService:
    """Micro-batching, memoizing, thread-safe front door for an optimizer.

    Serves an optimizer with the :class:`~repro.core.inference.FossOptimizer`
    protocol: ``optimize_many(queries, ctxs=None)`` returns one
    :class:`OptimizedPlan` or :class:`DeadlineExceededError` per query, and
    ``optimize(query, ctx=None)`` serves one query or raises
    :class:`OptimizeError`.  Without :meth:`start` the service is
    synchronous: ``submit`` flushes inline when the queue fills, ``result``
    and ``wait`` flush on demand.

    Lock ownership:

    * ``_lock`` guards the queue, the memo, the results store, the events
      ledger, ticket numbering, the flusher handle and the tallies (plain
      ints, read by the registry series without it); ``_wakeup`` is a
      condition on it.
    * ``_optimize_lock`` serializes calls into the optimizer (its episode
      runners and score caches are single-flight) and is only ever taken
      *without* ``_lock`` held, so clients keep submitting while a flush
      optimizes.  Whoever owns the optimizer owns the lock: FossSession
      passes one lock to every service it builds.
    * A ``_Pending`` record belongs to the one thread that took it off the
      queue (or made it, on the sync path); other threads only ever see
      its settled ``TicketResult``.
    """

    def __init__(
        self,
        optimizer,
        backend: EngineBackend,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        memo_capacity: int = DEFAULT_MEMO_CAPACITY,
        results_capacity: int = DEFAULT_RESULTS_CAPACITY,
        flush_interval_ms: float = DEFAULT_FLUSH_INTERVAL_MS,
        optimize_lock: Optional[threading.Lock] = None,
        max_pending: Optional[int] = None,
        tenant: str = "",
        clock: Optional[MonotonicClock] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if results_capacity < 1:
            raise ValueError("results_capacity must be >= 1")
        if flush_interval_ms <= 0:
            raise ValueError("flush_interval_ms must be > 0")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None for unbounded)")
        self.optimizer = optimizer
        self.backend = backend
        self.max_batch_size = max_batch_size
        self.memo_capacity = memo_capacity
        self.results_capacity = results_capacity
        self.flush_interval_ms = flush_interval_ms
        self.max_pending = max_pending  # None: unbounded queue
        self.tenant = tenant  # stamped onto every context this service mints
        self.clock = clock if clock is not None else CLOCK
        self._lock = threading.RLock()
        self._wakeup = threading.Condition(self._lock)
        self._optimize_lock = optimize_lock if optimize_lock is not None else threading.Lock()
        self._flusher_thread: Optional[threading.Thread] = None
        self._stop_requested = False
        self._memo: "OrderedDict[StatementKey, OptimizedPlan]" = OrderedDict()
        self._pending: List[_Pending] = []
        self._results: "OrderedDict[int, TicketResult]" = OrderedDict()
        # One event per unresolved ticket, set and dropped when its outcome
        # is stored.  An issued id with neither was evicted.
        self._events: Dict[int, threading.Event] = {}
        self._next_ticket = 0
        self._tally: Dict[str, int] = dict.fromkeys((*_COUNTERS, "occupancy_max"), 0)
        self._latency, self._stages = _series(self)

    # -- background flusher ----------------------------------------------
    @property
    def started(self) -> bool:
        """Whether the background flusher thread is running."""
        return self._flusher_alive()

    def _flusher_alive(self) -> bool:
        thread = self._flusher_thread
        return thread is not None and thread.is_alive()

    def start(self) -> "OptimizerService":
        """Start the background flusher thread; idempotent.

        Returns ``self``, so ``with service.start():`` stops on exit.  A
        stale thread left by a timed-out :meth:`stop` is replaced; starting
        while another thread's stop() is still draining raises.
        """
        with self._lock:
            if self._flusher_alive():
                if self._stop_requested:
                    raise RuntimeError("cannot start(): a stop() is still draining the "
                                       "flusher; retry after it returns")
                return self
            self._stop_requested = False
            self._flusher_thread = threading.Thread(
                target=self._flush_loop, name="optimizer-service-flusher", daemon=True
            )
            self._flusher_thread.start()
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the flusher and drain the queue; idempotent.  Raises
        ``RuntimeError`` if the thread outlives ``timeout``; the request stays
        set, so a retried ``stop()`` (or a later ``start()``) recovers."""
        with self._lock:
            thread = self._flusher_thread
            if thread is None:
                return
            self._stop_requested = True
            self._wakeup.notify_all()
        thread.join(timeout)
        if thread.is_alive():
            raise RuntimeError(f"flusher thread did not stop within {timeout}s")
        with self._lock:
            # A concurrent start() may have replaced the thread meanwhile.
            if self._flusher_thread is thread:
                self._flusher_thread = None
                self._stop_requested = False
        self.flush()  # anything submitted after the flusher's final pass

    def _flush_loop(self) -> None:
        interval = self.flush_interval_ms / 1000.0
        while True:
            with self._lock:
                if not self._stop_requested and len(self._pending) < self.max_batch_size:
                    # Until the time trigger, a size trigger or a stop().
                    self._wakeup.wait(timeout=interval)
                should_flush = bool(self._pending)
                if self._stop_requested and not should_flush:
                    return
            if should_flush:
                try:
                    self.flush()
                except Exception:
                    pass  # settled onto every ticket it held; the flusher survives

    def __enter__(self) -> "OptimizerService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- ticketed path -----------------------------------------------------
    def submit(
        self,
        sql: str,
        ctx: Optional[RequestContext] = None,
        deadline_s: Optional[float] = None,
        priority: int = 0,
        traced: bool = False,
    ) -> PlanTicket:
        """Enqueue SQL text; get a ticket back.

        A context is minted (tenant, deadline, priority, ``traced``) unless
        the caller passes one.  With ``max_pending`` set, a full queue
        raises :class:`AdmissionRejectedError` before a ticket is issued.
        A ticket is born resolved when the door knows its outcome:
        ``"expired"`` for a spent budget (the SQL is never bound),
        ``"failed"`` for SQL that does not bind, ``"done"`` with
        ``cached=True`` for a memoized query.
        """
        if ctx is None:
            ctx = RequestContext.mint(tenant=self.tenant, deadline_s=deadline_s,
                                      priority=priority, clock=self.clock, traced=traced)
        now = self.clock.now()
        with self._lock:
            if self.max_pending is not None and len(self._pending) >= self.max_pending:
                self._tally["rejected"] += 1
                raise AdmissionRejectedError(
                    f"pending queue is full ({len(self._pending)} >= "
                    f"max_pending={self.max_pending}); back off and retry"
                )
            ticket_id = self._next_ticket
            self._next_ticket += 1
            self._events[ticket_id] = threading.Event()
        record = _Pending(ticket_id, sql, ctx, {}, self._begin_request_span(ctx, now, ticket_id))
        self._stamp([record], "enqueue", now)
        try:
            # Outside the lock: binding must not stall other submitters.
            record.query = self._bind(sql, ctx, "submission")
            record.key = record.query.key()
        except OptimizeError as exc:
            record.outcome = exc
        except BaseException:
            # The caller never receives the ticket: drop its event (the one
            # store without a capacity bound) and abandon its open span.
            with self._lock:
                self._events.pop(ticket_id, None)
            raise
        if record.outcome is None and self._dedup([record]):
            self._enqueue(record)
        else:
            self._settle([record])
        return PlanTicket(ticket_id, sql, context=ctx)

    def _enqueue(self, record: _Pending) -> None:
        with self._lock:
            self._pending.append(record)
            flush_inline = len(self._pending) >= self.max_batch_size
            if flush_inline and self._flusher_alive():
                self._wakeup.notify_all()  # size trigger
                flush_inline = False
        if flush_inline:
            self.flush()

    def result(self, ticket, timeout: Optional[float] = None) -> TicketResult:
        """The outcome for a ticket, flushing the queue first.

        A ticket inside another thread's flush is waited for (bounded).
        Raises :class:`TicketEvictedError` for an outcome that aged out,
        ``ValueError`` for a never-issued id and ``TimeoutError`` if an
        in-flight resolution does not land in time.
        """
        return self._redeem(ticket, _RESULT_WAIT_S if timeout is None else timeout, True)

    def wait(self, ticket, timeout: Optional[float] = None) -> TicketResult:
        """Block on the ticket's event until its outcome is settled.

        ``timeout=None`` waits indefinitely; on expiry ``TimeoutError`` is
        raised and the ticket stays redeemable.  Without a running flusher
        the queue is flushed inline first, so ``wait`` never deadlocks a
        synchronous service.
        """
        return self._redeem(ticket, timeout, not self._flusher_alive())

    def _redeem(self, ticket, timeout: Optional[float], flush: bool) -> TicketResult:
        ticket_id = ticket.ticket_id if isinstance(ticket, PlanTicket) else int(ticket)
        found = self._lookup(ticket_id)
        if isinstance(found, threading.Event):
            if flush:
                self.flush()
            if not found.wait(timeout):
                raise TimeoutError(f"ticket {ticket_id} was not resolved within {timeout}s")
            found = self._lookup(ticket_id)  # the event is dropped before it is set
        return found

    def _lookup(self, ticket_id: int):
        """The ticket's stored outcome, else its unset event."""
        with self._lock:
            found = self._results.get(ticket_id)
            if found is None:
                found = self._events.get(ticket_id)
            issued = 0 <= ticket_id < self._next_ticket
        if found is not None:
            return found
        if issued:
            raise TicketEvictedError(
                f"ticket {ticket_id} was served but its outcome aged out of the results "
                f"store (results_capacity={self.results_capacity}); redeem sooner or "
                f"raise the capacity"
            )
        raise ValueError(f"unknown ticket {ticket_id}")

    def flush(self) -> None:
        """Resolve every queued request, one cohort of at most
        ``max_batch_size`` per optimizer call, so the cap holds even when a
        burst piles up while the flusher is optimizing."""
        while True:
            records = self._take()
            if not records:
                return
            self._serve(records)

    # -- synchronous path --------------------------------------------------
    def optimize_sql(
        self,
        sql: str,
        ctx: Optional[RequestContext] = None,
        deadline_s: Optional[float] = None,
    ) -> OptimizedPlan:
        """SQL text → parse/bind → steered plan; raises :class:`OptimizeError`.

        A context is minted when ``deadline_s`` is given (ignored if the
        caller passes ``ctx``); a spent budget raises
        :class:`DeadlineExceededError`, counted as ``expired``.
        """
        ctx = self._mint_sync_ctx(ctx, deadline_s)
        return self._optimize_sync(sql, ctx)[1]

    def execute_sql(
        self,
        sql: str,
        timeout_ms: Optional[float] = None,
        ctx: Optional[RequestContext] = None,
        deadline_s: Optional[float] = None,
    ) -> ExecutionResult:
        """Optimize SQL text and execute the chosen plan on the backend.

        What is left of the deadline budget caps ``timeout_ms``.
        """
        ctx = self._mint_sync_ctx(ctx, deadline_s)
        query, optimized = self._optimize_sync(sql, ctx)
        effective_ms = timeout_ms
        if ctx is not None:
            now = self.clock.now()
            if ctx.expired(now):
                with self._lock:
                    self._tally["expired"] += 1
                raise deadline_error(ctx, "execution")
            remaining = ctx.remaining_s(now)
            if remaining is not None:
                budget_ms = remaining * 1000.0
                effective_ms = budget_ms if timeout_ms is None else min(timeout_ms, budget_ms)
        return self.backend.execute(query, optimized.plan, timeout_ms=effective_ms)

    def _mint_sync_ctx(self, ctx: Optional[RequestContext], deadline_s: Optional[float]):
        if ctx is not None or deadline_s is None:
            return ctx
        return RequestContext.mint(tenant=self.tenant, deadline_s=deadline_s, clock=self.clock)

    def _optimize_sync(self, sql: str, ctx) -> Tuple[Query, OptimizedPlan]:
        """A cohort of one through the stages, with hits answered at the door.

        An untraced memo hit costs one statement key, one lock acquisition, one
        memo lookup and an int tally, and allocates no record; every
        ``_HIT_SAMPLE_EVERY``-th hit is also timed into the latency window.
        """
        try:
            query = self._bind(sql, ctx, "binding")
        except OptimizeError as exc:
            self._settle([_Pending(None, sql, ctx, outcome=exc)])
            raise
        start = self.clock.now()
        key = query.key()
        if ctx is None or ctx.trace_id is None:
            with self._lock:
                plan = self._memo.get(key)
                if plan is not None:
                    self._memo.move_to_end(key)
                    self._tally["hits"] = hits = self._tally["hits"] + 1
                    if not hits % _HIT_SAMPLE_EVERY:
                        self._latency.observe((self.clock.now() - start) * 1000.0)
                    return query, plan
        record = _Pending(None, sql, ctx, span=self._begin_request_span(ctx, start), query=query)
        self._serve([record])
        if isinstance(record.outcome, BaseException):
            raise record.outcome
        return query, record.outcome

    # -- the stages --------------------------------------------------------
    def _bind(self, sql: str, ctx: Optional[RequestContext], before: str) -> Query:
        """Refuse a spent budget, else bind: raises :class:`OptimizeError`."""
        if ctx is not None and ctx.expired(self.clock.now()):
            raise deadline_error(ctx, before)
        return bind_sql(self.backend, sql)

    def _take(self) -> List[_Pending]:
        """Stage 1: up to ``max_batch_size`` queued records, by priority."""
        with self._lock:
            pending = self._pending
            if any(record.ctx.priority for record in pending):
                pending.sort(key=lambda record: -record.ctx.priority)  # stable
            records = pending[: self.max_batch_size]
            del pending[: self.max_batch_size]
        return records

    def _serve(self, records: List[_Pending]) -> None:
        """Stages 2-5 for one cohort.

        Whatever raises, every record leaves settled: one without an
        outcome fails with the exception, a plan already taken from the
        memo is still served, and then the exception propagates.
        """
        start = self.clock.now()
        try:
            live = self._drop_expired(records, start)
            self._optimize(live, self._dedup(live))
        except BaseException as exc:
            failure = OptimizeError(f"flush failed: {exc!r}")
            for record in records:
                if record.outcome is None:
                    record.outcome = failure
            raise
        finally:
            self._settle(records, start)

    def _drop_expired(self, records: List[_Pending], now: float) -> List[_Pending]:
        """Stage 2: resolve records whose budget ran out while queued."""
        self._stamp(records, "flush", now)
        live = []
        for record in records:
            ctx = record.ctx
            if ctx is not None and ctx.expired(now):
                record.outcome = DeadlineExceededError(
                    f"request {ctx.request_id} exceeded its {ctx.deadline_s}s deadline while queued"
                )
            else:
                live.append(record)
        return live

    def _dedup(self, records: List[_Pending]) -> Dict[StatementKey, _Pending]:
        """Stage 3: answer memo hits; the first record of each other statement.

        A hit's plan is snapshotted onto its record, so the memo may evict
        it while the cohort's own misses are memoized.
        """
        unique: Dict[StatementKey, _Pending] = {}
        with self._lock:
            for record in records:
                if record.key in unique:
                    continue  # rides on the first request of its statement
                plan = self._memo.get(record.key)
                if plan is None:
                    unique[record.key] = record
                else:
                    self._memo.move_to_end(record.key)
                    record.outcome, record.cached = plan, True
        return unique

    def _optimize(self, records: List[_Pending], unique: Dict[StatementKey, _Pending]) -> None:
        """Stage 4: one optimizer call for the unique misses; memoize plans."""
        if unique:
            firsts = list(unique.values())
            with self._lock:
                tally = self._tally
                tally["batches"] += 1
                tally["occupancy"] += len(firsts)
                tally["occupancy_max"] = max(tally["occupancy_max"], len(firsts))
            # A traced request's context is re-parented on its root span, so
            # the engine's spans join under it.
            ctxs = [r.ctx if r.span is None else r.ctx.with_parent_span(r.span.span_id)
                    for r in firsts]
            outcomes = self._optimize_queries([r.query for r in firsts], ctxs)
            if len(outcomes) != len(firsts):
                raise RuntimeError(
                    f"optimizer returned {len(outcomes)} outcomes for {len(firsts)} queries"
                )
            with self._lock:
                for record, outcome in zip(firsts, outcomes):
                    record.outcome = outcome
                    if isinstance(outcome, OptimizedPlan):
                        self._memoize(record.key, outcome)
            for record in records:
                if record.outcome is None:
                    record.outcome, record.cached = unique[record.key].outcome, True
        now = self.clock.now()
        self._stamp(records, "engine", now)
        for record in records:
            if record.span is not None and record.trace is not None:
                # Retrospective span: the window spent inside the cohort.
                obs.get_tracer().add(
                    "service.flush", trace_id=record.ctx.trace_id, parent_id=record.span.span_id,
                    start_s=record.trace["flush"], end_s=now, attrs={"batch": len(records)},
                )

    def _settle(self, records: List[_Pending], start: Optional[float] = None) -> None:
        """Stage 5: count, time, close and hand back every record.

        A plan is a hit when ``cached`` and a miss otherwise, a
        :class:`DeadlineExceededError` is expired, any other outcome a
        failure.  A cohort served since ``start`` shares its latency evenly,
        observed for every record but hits, of which every
        ``_HIT_SAMPLE_EVERY``-th is observed.  A ticket's
        :class:`TicketResult` is stored and its event set; a sync caller
        reads ``outcome`` off its record.
        """
        done = self.clock.now()
        latency_ms = None if start is None else (done - start) * 1000.0 / len(records)
        self._stamp(records, "done", done)
        with self._lock:
            tally = self._tally
            for record in records:
                outcome, trace = record.outcome, record.trace
                if isinstance(outcome, OptimizedPlan):
                    status, counter = "done", "hits" if record.cached else "misses"
                elif isinstance(outcome, DeadlineExceededError):
                    status = counter = "expired"
                else:
                    status, counter = "failed", "failures"
                tally[counter] += 1
                if latency_ms is not None and (
                    counter != "hits" or not tally["hits"] % _HIT_SAMPLE_EVERY
                ):
                    self._latency.observe(latency_ms)
                for stage, (begin, end) in _STAGES.items() if trace is not None else ():
                    if begin in trace and end in trace:
                        self._stages[stage].observe(max(0.0, (trace[end] - trace[begin]) * 1000.0))
                if record.span is not None:
                    record.span.end(at=done, status=status)
                if record.ticket_id is not None:
                    ok = status == "done"
                    self._store(TicketResult(
                        record.ticket_id, record.sql, status,
                        plan=outcome if ok else None, error=None if ok else str(outcome),
                        cached=ok and record.cached, context=record.ctx, trace=trace,
                    ))

    # -- internals ---------------------------------------------------------
    def _stamp(self, records: List[_Pending], stage: str, now: float) -> None:
        """Stamp a stage on each traced ticket's trace."""
        for record in records:
            if record.trace is not None:
                record.trace[stage] = now

    def _begin_request_span(
        self, ctx: Optional[RequestContext], start: float, ticket_id: Optional[int] = None
    ) -> Optional[obs.Span]:
        """The root ``service.request`` span of a traced request; ``None``
        (and no allocation) for an untraced one."""
        if ctx is None or ctx.trace_id is None:
            return None
        attrs = {"request_id": ctx.request_id, "tenant": ctx.tenant}
        if ticket_id is not None:
            attrs["ticket_id"] = ticket_id
        return obs.get_tracer().begin("service.request", trace_id=ctx.trace_id,
                                      parent_id=ctx.parent_span_id, attrs=attrs, start=start)

    def _optimize_queries(self, queries: Sequence[Query], ctxs) -> List[object]:
        """An OptimizedPlan or OptimizeError per query, on ``_optimize_lock``.

        If ``optimize_many`` raises ``OptimizeError`` the queries are retried
        one at a time, so one bad query cannot fail its cohort (plans are
        batch-size invariant)."""
        if ctxs.count(None) == len(ctxs):
            ctxs = None
        with self._optimize_lock:
            try:
                return self.optimizer.optimize_many(queries, ctxs=ctxs)
            except OptimizeError:
                pass
            outcomes: List[object] = []
            for index, query in enumerate(queries):
                try:
                    outcomes.append(
                        self.optimizer.optimize(query, ctx=None if ctxs is None else ctxs[index])
                    )
                except OptimizeError as exc:
                    outcomes.append(exc)
            return outcomes

    def _store(self, result: TicketResult) -> None:
        # Caller holds _lock.
        while len(self._results) >= self.results_capacity:
            self._results.popitem(last=False)
            self._tally["evicted"] += 1
        self._results[result.ticket_id] = result
        event = self._events.pop(result.ticket_id, None)
        if event is not None:
            event.set()

    def _memoize(self, key: StatementKey, plan: OptimizedPlan) -> None:
        # Caller holds _lock.
        if self.memo_capacity <= 0:  # caching disabled
            return
        if key in self._memo:
            # Overwrite in place: evicting here would throw away an
            # unrelated cached plan without the memo growing.
            self._memo[key] = plan
            self._memo.move_to_end(key)
            return
        while self._memo and len(self._memo) >= self.memo_capacity:
            self._memo.popitem(last=False)
        self._memo[key] = plan

    # -- telemetry ---------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Serving telemetry: latencies, batching, memoization, lifecycle.

        ``requests = served + failures + expired``; ``rejected`` counts
        admission-control refusals, which never became requests.  The
        counts are exact, read together under the service lock, and this
        service's :mod:`repro.obs` counters read the same ints, so a
        Prometheus scrape and ``stats()`` agree.  ``latency_p*`` and
        ``latency_mean_ms`` cover every timed miss, failure and expiry but
        only one memo hit in ``_HIT_SAMPLE_EVERY`` (64).
        """
        with self._lock:
            pending = len(self._pending)
            memo_size = len(self._memo)
            started = self._flusher_alive()
            count = dict(self._tally)
        hits, batches = count["hits"], count["batches"]
        served = hits + count["misses"]

        def percentile(window: np.ndarray, pct: int) -> float:
            return float(np.percentile(window, pct)) if window.size else 0.0

        windows = {stage: child.window_values() for stage, child in self._stages.items()}
        stage_stats = {
            f"stage_{stage}_p{pct}_ms": percentile(window, pct)
            for stage, window in windows.items()
            for pct in (50, 95, 99)
        }
        latencies = self._latency.window_values()
        return {
            "requests": served + count["failures"] + count["expired"],
            "served": served,
            "failures": count["failures"],
            "expired": count["expired"],
            "rejected": count["rejected"],
            "pending": pending,
            **stage_stats,
            "cache_hits": hits,
            "cache_misses": count["misses"],
            "cache_hit_rate": hits / served if served else 0.0,
            "memo_size": memo_size,
            "results_evicted": count["evicted"],
            "started": 1.0 if started else 0.0,
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p95_ms": percentile(latencies, 95),
            "latency_p99_ms": percentile(latencies, 99),
            "latency_mean_ms": float(latencies.mean()) if latencies.size else 0.0,
            "batches": batches,
            "mean_batch_occupancy": count["occupancy"] / batches if batches else 0.0,
            "max_batch_occupancy": count["occupancy_max"],
        }
