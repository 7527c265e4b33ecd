"""Request/response serving over any optimizer: SQL text in, plan out.

``OptimizerService`` is the deployment surface of the plan doctor:

* :meth:`~OptimizerService.submit` — enqueue SQL text, get a
  :class:`PlanTicket` back; queued requests are micro-batched through the
  optimizer's ``optimize_many`` (one lockstep cohort per flush, one
  engine batch call per cohort phase) when the queue reaches
  ``max_batch_size`` or on :meth:`~OptimizerService.flush` /
  :meth:`~OptimizerService.result`;
* :meth:`~OptimizerService.start` / :meth:`~OptimizerService.stop` — a
  background flusher thread that micro-batches submissions from many
  client threads: flushes are size-triggered (the queue reaches
  ``max_batch_size``) and time-triggered (``flush_interval_ms`` elapses
  with requests pending);
* :meth:`~OptimizerService.wait` — block on a per-ticket event until the
  outcome is available (or ``timeout`` elapses);
* :meth:`~OptimizerService.optimize_sql` — the synchronous path, SQL text →
  parse/bind → plan;
* :meth:`~OptimizerService.execute_sql` — additionally runs the chosen plan
  through the engine backend;
* :meth:`~OptimizerService.stats` — serving telemetry: latency percentiles,
  batch occupancy, cache hit rate.

The service is thread-safe end to end: any number of client threads may
submit/wait/optimize concurrently with the flusher.  One lock guards the
pending queue, the memo/results stores and the telemetry counters; a
second serializes calls into the optimizer itself (whose episode runners
and score caches are single-flight).  Plans served under concurrency are
bitwise-identical to the single-threaded path — the optimizer is a pure
function of the query — only request ordering and telemetry may differ.

Plans are memoized by query signature (bounded LRU), and batching is
plan-identical to one-at-a-time serving: the lockstep episode runner is
batch-size invariant, and duplicate signatures inside one flush resolve to
a single optimization.  Failures (malformed SQL, unknown tables) surface as
one typed :class:`~repro.engine.context.OptimizeError` — the synchronous
paths raise it, the ticket path maps it onto a failed ticket.  A ticket
whose outcome aged out of the bounded results store raises
:class:`TicketEvictedError` (distinct from the ``ValueError`` a
never-issued ticket id gets).

Every request carries a :class:`~repro.engine.context.RequestContext`
(minted by ``submit``/``optimize_sql`` unless the caller passes one):

* **admission control** — with ``max_pending`` set, ``submit`` raises
  :class:`~repro.api.context.AdmissionRejectedError` before issuing a
  ticket once the queue is full (counted as ``rejected``);
* **deadlines** — a request whose ``deadline_s`` budget ran out is
  resolved as an ``"expired"`` ticket (counted as ``expired``, never
  ``failures``): at submit time without ever binding, at flush time
  before it enters a cohort, or mid-batch by the optimizer/backend;
* **tracing** — the lifecycle stages (``enqueue → flush → engine →
  done``) are stamped onto each ticket's trace, observed by an optional
  ``trace_hook``, and surfaced as per-stage p50/p95/p99 in
  :meth:`~OptimizerService.stats`.

A context reaches the engine's planning call with its request, but it
never changes a plan: requests are only ever dropped, so served plans stay
bitwise-identical with or without deadlines.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.api.context import AdmissionRejectedError, TraceHook
from repro.core.inference import OptimizedPlan, bind_sql
from repro.engine.context import (
    CLOCK,
    DeadlineExceededError,
    MonotonicClock,
    OptimizeError,
    RequestContext,
    deadline_error,
)
from repro.engine.backend import EngineBackend
from repro.executor.engine import ExecutionResult
from repro.sql.ast import Query

DEFAULT_MAX_BATCH_SIZE = 32
DEFAULT_MEMO_CAPACITY = 4096
DEFAULT_RESULTS_CAPACITY = 10_000  # redeemed-or-not ticket outcomes kept
DEFAULT_FLUSH_INTERVAL_MS = 2.0  # background flusher time trigger
_LATENCY_WINDOW = 10_000  # per-request latencies kept for percentile stats
# result() only blocks when another thread holds the ticket in an
# in-flight flush; the bound turns a deadlocked flusher into a loud
# TimeoutError instead of a hang.
_RESULT_WAIT_S = 60.0
# The per-request trace is exposed as stage *durations*: time queued
# behind the flusher, time inside the optimizer/engine, time finalizing
# outcomes, and the end-to-end total.
_STAGE_NAMES = ("queue", "engine", "finalize", "total")

# Each service instance gets its own label value in the process-global
# metrics registry, so two services (or two tests) never read each
# other's series while still landing in one scrapeable registry.
_service_serial = itertools.count()


class TicketEvictedError(ValueError):
    """The ticket was resolved, but its outcome aged out of the bounded
    results store before it was redeemed.

    Distinct from the plain ``ValueError`` raised for a never-issued
    ticket id: an evicted ticket *was* served — raise ``results_capacity``
    or redeem sooner.  Subclasses ``ValueError`` so callers that treated
    every unredeemable ticket alike keep working.
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


class OptimizerService:
    """Micro-batching, memoizing, thread-safe front door for an optimizer.

    Serves an optimizer with the :class:`~repro.core.inference.FossOptimizer`
    protocol: ``optimize_many(queries, ctxs=None)`` returns one
    :class:`OptimizedPlan` or :class:`DeadlineExceededError` per query, so a
    whole flush costs one cohort run, and ``optimize(query, ctx=None)``
    serves one query or raises :class:`OptimizeError`.

    Without :meth:`start`, the service behaves synchronously: ``submit``
    flushes inline when the queue fills, ``result`` flushes on demand.
    With the flusher running, submissions from any number of client
    threads are batched on size/time triggers and redeemed via
    :meth:`wait` or :meth:`result`.
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
        trace_hook: Optional[TraceHook] = None,
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
        # Admission control: submit() rejects (typed, before a ticket is
        # issued) once this many requests are queued.  None = unbounded,
        # the pre-context behavior.
        self.max_pending = max_pending
        # Stamped onto every context this service mints.
        self.tenant = tenant
        self.clock = clock if clock is not None else CLOCK
        self.trace_hook = trace_hook
        # _lock guards every piece of serving state below; _wakeup (same
        # underlying lock) is how submit() pokes the flusher on a size
        # trigger.  _optimize_lock serializes calls into the optimizer —
        # its episode runners and score caches are not reentrant — and is
        # only ever taken *without* _lock held, so client threads can keep
        # submitting while a flush is optimizing.  The lock belongs to
        # whoever owns the optimizer: FossSession passes one shared lock
        # to every service it builds, so two services over the same
        # session's optimizer still serialize on it.
        self._lock = threading.RLock()
        self._wakeup = threading.Condition(self._lock)
        self._optimize_lock = optimize_lock if optimize_lock is not None else threading.Lock()
        self._flusher_thread: Optional[threading.Thread] = None
        self._stop_requested = False
        self._memo: "OrderedDict[str, OptimizedPlan]" = OrderedDict()
        # (ticket_id, sql, query, ctx, trace) — trace is the mutable stage
        # stamp dict that ends up on the TicketResult.
        self._pending: List[Tuple[int, str, Query, Optional[RequestContext], Dict[str, float]]] = []
        self._pending_ids: set = set()  # O(1) "is it queued?" for result()/wait()
        # Bounded like every other store: oldest outcomes age out, so a
        # long-running service cannot leak one TicketResult per request.
        self._results: "OrderedDict[int, TicketResult]" = OrderedDict()
        # One event per unresolved ticket; set (and dropped) when the
        # outcome lands in _results.  Doubles as the issued-but-unresolved
        # ledger: an issued id with no event and no result was evicted.
        self._events: Dict[int, threading.Event] = {}
        self._next_ticket = 0
        # telemetry — every counter and latency window below is a view
        # over the process-global repro.obs registry.  ``stats()`` keeps
        # its historical keys by reading this service's own labeled
        # series back out.  The latency windows are bounded numpy ring
        # buffers inside obs Histograms: constant memory no matter how
        # many requests pass through (the old list-append/slice windows
        # reallocated per request).
        registry = obs.get_registry()
        labels = {"tenant": self.tenant or "default", "service": f"svc{next(_service_serial)}"}
        self._obs_labels = labels
        names = ("tenant", "service")
        self._m_hits = registry.counter(
            "serving_cache_hits_total", "requests served from the plan memo", names
        ).labels(**labels)
        self._m_misses = registry.counter(
            "serving_cache_misses_total", "requests that cost an optimization", names
        ).labels(**labels)
        self._m_failures = registry.counter(
            "serving_failures_total", "requests that failed (bind/optimize errors)", names
        ).labels(**labels)
        self._m_expired = registry.counter(
            "serving_expired_total", "requests dropped after their deadline budget ran out", names
        ).labels(**labels)
        self._m_rejected = registry.counter(
            "serving_rejected_total", "submits refused by admission control", names
        ).labels(**labels)
        self._m_evicted = registry.counter(
            "serving_results_evicted_total", "ticket outcomes aged out unredeemed", names
        ).labels(**labels)
        self._m_batches = registry.counter(
            "serving_batches_total", "optimizer micro-batches flushed", names
        ).labels(**labels)
        self._m_batch_occupancy_sum = registry.counter(
            "serving_batch_occupancy_sum", "total unique queries across all batches", names
        ).labels(**labels)
        self._m_batch_occupancy_max = registry.gauge(
            "serving_batch_occupancy_max", "largest batch flushed so far", names
        ).labels(**labels)
        self._m_hook_errors = registry.counter(
            "serving_obs_hook_errors_total", "exceptions swallowed from the trace_hook", names
        ).labels(**labels)
        self._m_latency = registry.histogram(
            "serving_latency_ms",
            "per-request optimization latency",
            names,
            window=_LATENCY_WINDOW,
        ).labels(**labels)
        stage_hist = registry.histogram(
            "serving_stage_ms",
            "lifecycle stage durations (queue/engine/finalize/total)",
            ("stage",) + names,
            window=_LATENCY_WINDOW,
        )
        self._m_stages = {
            stage: stage_hist.labels(stage=stage, **labels) for stage in _STAGE_NAMES
        }
        # Open root spans by ticket id (traced requests only); ended by
        # _store_result, the single funnel every outcome passes through.
        self._open_spans: Dict[int, obs.Span] = {}

    # ------------------------------------------------------------------
    # background flusher lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether the background flusher thread is running."""
        return self._flusher_alive()

    def _flusher_alive(self) -> bool:
        thread = self._flusher_thread
        return thread is not None and thread.is_alive()

    def start(self, flush_interval_ms: Optional[float] = None) -> "OptimizerService":
        """Start the background flusher thread; idempotent.

        Returns ``self`` so ``with session.service().start() as svc:``
        reads naturally; :meth:`stop` is called on context exit.  A stale
        thread left by a timed-out :meth:`stop` that has since exited is
        replaced.  Calling start() while another thread's stop() is still
        draining raises instead of silently no-opping — the caller would
        otherwise believe a flusher runs that is about to exit.
        """
        with self._lock:
            if self._flusher_alive():
                if self._stop_requested:
                    raise RuntimeError(
                        "cannot start(): a stop() is still draining the flusher; "
                        "retry after it returns"
                    )
                return self
            if flush_interval_ms is not None:
                if flush_interval_ms <= 0:
                    raise ValueError("flush_interval_ms must be > 0")
                self.flush_interval_ms = float(flush_interval_ms)
            self._stop_requested = False
            self._flusher_thread = threading.Thread(
                target=self._flush_loop, name="optimizer-service-flusher", daemon=True
            )
            self._flusher_thread.start()
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the flusher and drain the queue; idempotent.

        Raises ``RuntimeError`` if the thread does not exit within
        ``timeout`` seconds (a deadlocked flusher should fail loudly, not
        hang its caller).  The stop request stays set on a timeout, so a
        slow-but-healthy flusher exits after its current flush and a
        retried ``stop()`` (or a later ``start()``) recovers the service.
        """
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
            # A concurrent start() may have replaced the thread while we
            # were joining; only clear the state if it is still ours.
            if self._flusher_thread is thread:
                self._flusher_thread = None
                self._stop_requested = False
        self.flush()  # anything submitted after the flusher's final pass

    def _flush_loop(self) -> None:
        interval = self.flush_interval_ms / 1000.0
        while True:
            with self._lock:
                if not self._stop_requested and len(self._pending) < self.max_batch_size:
                    # Sleep until the time trigger, a size-trigger notify
                    # from submit(), or a stop() notify.
                    self._wakeup.wait(timeout=interval)
                should_flush = bool(self._pending)
                if self._stop_requested and not should_flush:
                    return
            if should_flush:
                try:
                    self.flush()
                except Exception:
                    # flush() already mapped the failure onto every ticket
                    # it was holding; the flusher itself must survive.
                    pass

    def __enter__(self) -> "OptimizerService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # ticketed (micro-batched) path
    # ------------------------------------------------------------------
    def submit(
        self,
        sql: str,
        ctx: Optional[RequestContext] = None,
        deadline_s: Optional[float] = None,
        priority: int = 0,
        traced: bool = False,
    ) -> PlanTicket:
        """Enqueue SQL text; binding failures become failed tickets.

        A context is minted (tenant/deadline/priority) unless the caller
        passes one; ``deadline_s``/``priority``/``traced`` are ignored
        when ``ctx`` is given.  ``traced=True`` attaches a ``repro.obs``
        trace id to the minted context, so the request produces a joined
        span tree across every layer it touches (see :mod:`repro.obs`);
        untraced requests allocate no spans at all.  With ``max_pending``
        set, a full queue raises :class:`AdmissionRejectedError` *before*
        a ticket is issued.  A context whose deadline already passed is
        resolved as an ``"expired"`` ticket immediately — the SQL is
        never even bound, so an expired submit costs no engine work at
        all.
        """
        if ctx is None:
            ctx = RequestContext.mint(
                tenant=self.tenant,
                deadline_s=deadline_s,
                priority=priority,
                clock=self.clock,
                traced=traced,
            )
        now = self.clock.now()
        with self._lock:
            if (
                self.max_pending is not None
                and len(self._pending) >= self.max_pending
            ):
                self._m_rejected.inc()
                raise AdmissionRejectedError(
                    f"pending queue is full ({len(self._pending)} >= "
                    f"max_pending={self.max_pending}); back off and retry"
                )
            ticket_id = self._next_ticket
            self._next_ticket += 1
            self._events[ticket_id] = threading.Event()
            span = self._begin_request_span(ctx, start=now)
            if span is not None:
                span.set_attr("ticket_id", ticket_id)
                self._open_spans[ticket_id] = span
        ticket = PlanTicket(ticket_id, sql, context=ctx)
        trace = {"enqueue": now}
        self._trace(ctx, "enqueue", now)
        if ctx.expired(now):
            # Rejected at the api layer: no bind, no engine call.
            done = self.clock.now()
            trace["done"] = done
            self._trace(ctx, "done", done)
            with self._lock:
                self._m_expired.inc()
                self._record_stage("total", (done - now) * 1000.0)
                self._store_result(
                    TicketResult(
                        ticket_id,
                        sql,
                        "expired",
                        error=(
                            f"request {ctx.request_id} exceeded its "
                            f"{ctx.deadline_s}s deadline before submission"
                        ),
                        context=ctx,
                        trace=trace,
                    )
                )
            return ticket
        try:
            # Outside the service lock: binding goes through the (itself
            # thread-safe) backend and must not stall other submitters.
            query = bind_sql(self.backend, sql)
        except OptimizeError as exc:
            with self._lock:
                self._m_failures.inc()
                self._store_result(
                    TicketResult(
                        ticket_id, sql, "failed", error=str(exc), context=ctx, trace=trace
                    )
                )
            return ticket
        except BaseException:
            # An unexpected binder failure propagates to the caller (who
            # never receives the ticket), but must not orphan the event —
            # the events ledger is the one store without a capacity bound.
            # The open span (if any) is abandoned with it: never recorded,
            # never leaked (the tracer holds no reference to open spans).
            with self._lock:
                self._events.pop(ticket_id, None)
                self._open_spans.pop(ticket_id, None)
            raise
        flush_inline = False
        with self._lock:
            self._pending.append((ticket_id, sql, query, ctx, trace))
            self._pending_ids.add(ticket_id)
            if len(self._pending) >= self.max_batch_size:
                if self._flusher_alive():
                    self._wakeup.notify_all()  # size trigger
                else:
                    flush_inline = True
        if flush_inline:
            self.flush()
        return ticket

    def _trace(self, ctx: Optional[RequestContext], stage: str, timestamp: float) -> None:
        """Feed one stage stamp to the trace hook; hooks can never raise out.

        Swallowed exceptions are *counted* (``obs_hook_errors`` in
        ``stats()``, ``serving_obs_hook_errors_total`` in the registry)
        so a broken hook is visible instead of silently dark.
        """
        hook = self.trace_hook
        if hook is None or ctx is None:
            return
        try:
            hook(ctx, stage, timestamp)
        except Exception:
            self._m_hook_errors.inc()

    def _begin_request_span(
        self, ctx: Optional[RequestContext], start: Optional[float] = None
    ) -> Optional[obs.Span]:
        """Open the root ``service.request`` span for a traced context.

        ``None`` (and zero work beyond one attribute read) for untraced
        requests — the disabled path allocates nothing.
        """
        if ctx is None or ctx.trace_id is None:
            return None
        return obs.get_tracer().begin(
            "service.request",
            trace_id=ctx.trace_id,
            parent_id=ctx.parent_span_id,
            attrs={"request_id": ctx.request_id, "tenant": ctx.tenant},
            start=start,
        )

    def result(self, ticket, timeout: Optional[float] = None) -> TicketResult:
        """The outcome for a ticket, flushing the queue if still pending.

        If the ticket rides in another thread's in-flight flush, blocks
        (bounded) until that flush stores it.  Raises
        :class:`TicketEvictedError` for an outcome that aged out of the
        results store, ``ValueError`` for a never-issued id, and
        ``TimeoutError`` if an in-flight resolution does not land in time.
        """
        ticket_id = self._ticket_id(ticket)
        while True:
            with self._lock:
                hit = self._results.get(ticket_id)
                if hit is not None:
                    return hit
                event = self._events.get(ticket_id)
                if event is None:
                    if 0 <= ticket_id < self._next_ticket:
                        raise TicketEvictedError(
                            f"ticket {ticket_id} was served but its outcome aged out "
                            f"of the results store (results_capacity="
                            f"{self.results_capacity}); redeem sooner or raise the capacity"
                        )
                    raise ValueError(f"unknown ticket {ticket_id}")
                pending_here = ticket_id in self._pending_ids
            if pending_here:
                self.flush()
                continue
            # Queued behind the flusher or inside another thread's flush.
            if not event.wait(timeout if timeout is not None else _RESULT_WAIT_S):
                raise TimeoutError(
                    f"ticket {ticket_id} was not resolved within "
                    f"{timeout if timeout is not None else _RESULT_WAIT_S}s"
                )

    def wait(self, ticket, timeout: Optional[float] = None) -> TicketResult:
        """Block until the ticket's outcome is available, then return it.

        The blocking primitive is a per-ticket event set by whichever
        flush stores the outcome — submitting threads can sleep here while
        the background flusher micro-batches.  ``timeout=None`` waits
        indefinitely; on expiry ``TimeoutError`` is raised and the ticket
        stays redeemable.  Without a running flusher the pending queue is
        flushed inline first, so ``wait`` never deadlocks a synchronous
        service.
        """
        ticket_id = self._ticket_id(ticket)
        with self._lock:
            hit = self._results.get(ticket_id)
            if hit is not None:
                return hit
            event = self._events.get(ticket_id)
            flusher_running = self._flusher_alive()
            pending_here = event is not None and ticket_id in self._pending_ids
        if event is None:
            return self.result(ticket_id)  # raises evicted/unknown as appropriate
        if pending_here and not flusher_running:
            self.flush()
        if not event.wait(timeout):
            raise TimeoutError(f"ticket {ticket_id} was not resolved within {timeout}s")
        return self.result(ticket_id)

    def flush(self) -> None:
        """Resolve every queued request through batched optimizations.

        The queue is drained in slices of at most ``max_batch_size`` — one
        micro-batch (one ``optimize_many`` cohort) per slice, so the
        configured cap holds even when a burst of submissions piles up
        while the flusher is busy optimizing.
        """
        while self._flush_slice():
            pass

    def _flush_slice(self) -> bool:
        """Resolve up to ``max_batch_size`` queued requests; False if idle.

        Thread-safe: the slice is snatched under the lock, optimization
        runs outside it (so submitters are never blocked on planning), and
        outcomes are stored under the lock again.  Hardened end to end: if
        *anything* after the slice leaves the queue raises — a misbehaving
        optimizer returning the wrong count, a signature failure, not just
        :meth:`_optimize_queries` — every still-unresolved ticket of the
        slice is stored before the exception propagates (memo hits with
        their snapshotted plans, the rest as failed), so a waiter is never
        left hanging.
        """
        with self._lock:
            if not self._pending:
                return False
            # Priority-aware slicing, only when some queued request asked
            # for it: the sort is stable, so equal priorities keep strict
            # submission order and the all-default path stays
            # order-identical to pre-context serving.
            if any(
                entry[3] is not None and entry[3].priority for entry in self._pending
            ):
                self._pending.sort(
                    key=lambda entry: -(entry[3].priority if entry[3] is not None else 0)
                )
            pending = self._pending[: self.max_batch_size]
            del self._pending[: self.max_batch_size]
            self._pending_ids.difference_update(entry[0] for entry in pending)

        # Deadline drop at flush time: a budget that ran out while the
        # request sat behind the flusher resolves as "expired" here — the
        # optimizer never sees the query.
        t_flush = self.clock.now()
        live: List[Tuple[int, str, Query, Optional[RequestContext], Dict[str, float]]] = []
        dropped: List[Tuple[int, str, Query, Optional[RequestContext], Dict[str, float]]] = []
        for entry in pending:
            ctx, trace = entry[3], entry[4]
            trace["flush"] = t_flush
            self._trace(ctx, "flush", t_flush)
            if ctx is not None and ctx.expired(t_flush):
                dropped.append(entry)
            else:
                live.append(entry)
        if dropped:
            done = self.clock.now()
            with self._lock:
                for ticket_id, sql, _query, ctx, trace in dropped:
                    trace["done"] = done
                    self._m_expired.inc()
                    self._record_stage("queue", (t_flush - trace["enqueue"]) * 1000.0)
                    self._record_stage("total", (done - trace["enqueue"]) * 1000.0)
                    self._store_result(
                        TicketResult(
                            ticket_id,
                            sql,
                            "expired",
                            error=(
                                f"request {ctx.request_id} exceeded its "
                                f"{ctx.deadline_s}s deadline while queued"
                            ),
                            context=ctx,
                            trace=trace,
                        )
                    )
            for _ticket_id, _sql, _query, ctx, trace in dropped:
                self._trace(ctx, "done", trace["done"])
        pending = live
        if not pending:
            return True

        # Bound before the try: the hardening below reads them even when
        # the dedup phase itself is what raised.
        resolved: Dict[str, object] = {}  # signature -> OptimizedPlan | OptimizeError
        signatures: List[str] = []
        try:
            with self._lock:
                # Deduplicate by query signature: memo hits and repeat
                # submissions of the same query cost one optimization at
                # most.  Hit plans are snapshotted here — the memo may
                # evict them while this flush's own misses are memoized
                # below.  The first requester's context rides with each
                # unique signature into the optimizer.
                unique: "OrderedDict[str, Query]" = OrderedDict()
                unique_ctxs: Dict[str, Optional[RequestContext]] = {}
                hit_signatures = set()
                for ticket_id, _sql, query, ctx, _trace in pending:
                    signature = query.signature()
                    signatures.append(signature)
                    if signature in resolved or signature in unique:
                        continue
                    plan = self._memo.get(signature)
                    if plan is not None:
                        self._memo.move_to_end(signature)
                        resolved[signature] = plan
                        hit_signatures.add(signature)
                    else:
                        unique[signature] = query
                        # A traced request hands the optimizer a context
                        # re-parented on its open root span, so engine
                        # spans join under it; the pending entry keeps
                        # the original ctx (TicketResult.context is
                        # unchanged).  Untraced contexts pass through
                        # untouched.
                        if ctx is not None and ctx.trace_id is not None:
                            root = self._open_spans.get(ticket_id)
                            if root is not None:
                                ctx = ctx.with_parent_span(root.span_id)
                        unique_ctxs[signature] = ctx
                if unique:
                    self._record_batch(len(unique))

            start = time.perf_counter()
            outcomes = (
                self._optimize_queries(
                    list(unique.values()),
                    [unique_ctxs[signature] for signature in unique],
                )
                if unique
                else []
            )
            if len(outcomes) != len(unique):
                raise RuntimeError(
                    f"optimizer returned {len(outcomes)} outcomes for "
                    f"{len(unique)} queries"
                )
            elapsed_ms = (time.perf_counter() - start) * 1000.0 / len(pending)
            t_engine = self.clock.now()
            for ticket_id, _sql, _query, ctx, trace in pending:
                trace["engine"] = t_engine
                self._trace(ctx, "engine", t_engine)
                if ctx is not None and ctx.trace_id is not None:
                    # Retrospective flush span: the window this request
                    # spent inside the micro-batch, a child of its root.
                    root = self._open_spans.get(ticket_id)
                    obs.get_tracer().add(
                        "service.flush",
                        trace_id=ctx.trace_id,
                        parent_id=root.span_id if root is not None else ctx.parent_span_id,
                        start_s=t_flush,
                        end_s=t_engine,
                        attrs={"batch": len(pending)},
                    )

            with self._lock:
                for signature, outcome in zip(unique, outcomes):
                    resolved[signature] = outcome
                    if isinstance(outcome, OptimizedPlan):
                        self._memoize(signature, outcome)

                # Per-request accounting: a memo hit or a duplicate of an
                # earlier request in this flush is a hit (``cached`` — it
                # rode along for free), the first successful resolution of
                # a signature is a miss, a deadline that ran out inside
                # the batch is expired, and every other error outcome is a
                # failure.
                t_done = self.clock.now()
                first_seen = set()
                for (ticket_id, sql, _query, ctx, trace), signature in zip(
                    pending, signatures
                ):
                    self._record_latency(elapsed_ms)
                    trace["done"] = t_done
                    self._record_stage("queue", (t_flush - trace["enqueue"]) * 1000.0)
                    self._record_stage("engine", (t_engine - t_flush) * 1000.0)
                    self._record_stage("finalize", (t_done - t_engine) * 1000.0)
                    self._record_stage("total", (t_done - trace["enqueue"]) * 1000.0)
                    outcome = resolved[signature]
                    if isinstance(outcome, OptimizedPlan):
                        cached = signature in hit_signatures or signature in first_seen
                        if cached:
                            self._m_hits.inc()
                        else:
                            first_seen.add(signature)
                            self._m_misses.inc()
                        self._store_result(
                            TicketResult(
                                ticket_id,
                                sql,
                                "done",
                                plan=outcome,
                                cached=cached,
                                context=ctx,
                                trace=trace,
                            )
                        )
                    elif isinstance(outcome, DeadlineExceededError):
                        self._m_expired.inc()
                        self._store_result(
                            TicketResult(
                                ticket_id,
                                sql,
                                "expired",
                                error=str(outcome),
                                context=ctx,
                                trace=trace,
                            )
                        )
                    else:
                        self._m_failures.inc()
                        self._store_result(
                            TicketResult(
                                ticket_id,
                                sql,
                                "failed",
                                error=str(outcome),
                                context=ctx,
                                trace=trace,
                            )
                        )
            for _ticket_id, _sql, _query, ctx, trace in pending:
                self._trace(ctx, "done", trace["done"])
        except BaseException as exc:
            with self._lock:
                for index, (ticket_id, sql, _query, ctx, trace) in enumerate(pending):
                    if ticket_id not in self._events:
                        continue  # outcome already stored before the failure
                    outcome = resolved.get(signatures[index]) if index < len(signatures) else None
                    if isinstance(outcome, OptimizedPlan):
                        # Snapshotted from the memo before the failure —
                        # still a perfectly good plan.
                        self._m_hits.inc()
                        self._store_result(
                            TicketResult(
                                ticket_id,
                                sql,
                                "done",
                                plan=outcome,
                                cached=True,
                                context=ctx,
                                trace=trace,
                            )
                        )
                    else:
                        self._m_failures.inc()
                        self._store_result(
                            TicketResult(
                                ticket_id,
                                sql,
                                "failed",
                                error=f"flush failed: {exc!r}",
                                context=ctx,
                                trace=trace,
                            )
                        )
            raise
        return True

    # ------------------------------------------------------------------
    # synchronous path
    # ------------------------------------------------------------------
    def optimize_sql(
        self,
        sql: str,
        ctx: Optional[RequestContext] = None,
        deadline_s: Optional[float] = None,
    ) -> OptimizedPlan:
        """SQL text → parse/bind → steered plan; raises :class:`OptimizeError`.

        A context is minted when ``deadline_s`` is given (ignored if the
        caller passes ``ctx``); an exhausted budget raises
        :class:`DeadlineExceededError`, counted as ``expired``.
        """
        ctx = self._mint_sync_ctx(ctx, deadline_s)
        self._check_sync_deadline(ctx, "binding")
        return self._optimize_query(self._bind_counted(sql), ctx)

    def execute_sql(
        self,
        sql: str,
        timeout_ms: Optional[float] = None,
        ctx: Optional[RequestContext] = None,
        deadline_s: Optional[float] = None,
    ) -> ExecutionResult:
        """Optimize SQL text and execute the chosen plan on the backend.

        A remaining deadline budget caps the execution timeout: the
        effective ``timeout_ms`` is the smaller of the caller's and what
        is left of ``ctx``'s budget.
        """
        ctx = self._mint_sync_ctx(ctx, deadline_s)
        self._check_sync_deadline(ctx, "binding")
        query = self._bind_counted(sql)
        optimized = self._optimize_query(query, ctx)
        self._check_sync_deadline(ctx, "execution")
        effective_ms = timeout_ms
        if ctx is not None:
            remaining = ctx.remaining_s(self.clock.now())
            if remaining is not None:
                budget_ms = remaining * 1000.0
                effective_ms = (
                    budget_ms if timeout_ms is None else min(timeout_ms, budget_ms)
                )
        return self.backend.execute(query, optimized.plan, timeout_ms=effective_ms)

    def _mint_sync_ctx(
        self, ctx: Optional[RequestContext], deadline_s: Optional[float]
    ) -> Optional[RequestContext]:
        if ctx is not None or deadline_s is None:
            return ctx
        return RequestContext.mint(
            tenant=self.tenant, deadline_s=deadline_s, clock=self.clock
        )

    def _check_sync_deadline(self, ctx: Optional[RequestContext], what: str) -> None:
        if ctx is None or not ctx.expired(self.clock.now()):
            return
        with self._lock:
            self._m_expired.inc()
        raise deadline_error(ctx, what)

    def _bind_counted(self, sql: str) -> Query:
        try:
            return bind_sql(self.backend, sql)
        except OptimizeError:
            with self._lock:
                self._m_failures.inc()
            raise

    def _optimize_query(
        self, query: Query, ctx: Optional[RequestContext] = None
    ) -> OptimizedPlan:
        span = self._begin_request_span(ctx)
        if span is None:
            # Untraced: the exact pre-obs code path, no span objects.
            return self._optimize_query_impl(query, ctx)
        status = "done"
        try:
            return self._optimize_query_impl(query, ctx.with_parent_span(span.span_id))
        except DeadlineExceededError:
            status = "expired"
            raise
        except OptimizeError:
            status = "failed"
            raise
        finally:
            span.end(status=status)

    def _optimize_query_impl(
        self, query: Query, ctx: Optional[RequestContext] = None
    ) -> OptimizedPlan:
        start = time.perf_counter()
        signature = query.signature()
        with self._lock:
            hit = self._memo.get(signature)
            if hit is not None:
                self._m_hits.inc()
                self._memo.move_to_end(signature)
                self._record_latency((time.perf_counter() - start) * 1000.0)
                return hit
            self._record_batch(1)
        # Two threads missing the same signature both optimize; the plans
        # are identical (the optimizer is deterministic), so the double
        # memoization below is a harmless overwrite.
        outcome = self._optimize_queries([query], None if ctx is None else [ctx])[0]
        with self._lock:
            self._record_latency((time.perf_counter() - start) * 1000.0)
            if isinstance(outcome, DeadlineExceededError):
                self._m_expired.inc()
            elif isinstance(outcome, OptimizeError):
                self._m_failures.inc()
            else:
                self._m_misses.inc()
                self._memoize(signature, outcome)
        if isinstance(outcome, OptimizeError):
            raise outcome
        return outcome

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _ticket_id(ticket) -> int:
        return ticket.ticket_id if isinstance(ticket, PlanTicket) else int(ticket)

    def _optimize_queries(
        self, queries: Sequence[Query], ctxs=None
    ) -> List[object]:
        """Optimize queries, returning an OptimizedPlan or OptimizeError each.

        Serialized on ``_optimize_lock``: the optimizer's episode runners
        and caches are single-flight.  One ``optimize_many`` call covers
        the batch; if it raises, the service falls back to one-at-a-time
        so a single bad query cannot fail its whole cohort (plans are
        batch-size invariant, so the fallback returns the same plans the
        batch would have).

        ``ctxs`` (aligned with ``queries``) thread deadlines into the
        optimizer, which slots a :class:`DeadlineExceededError` for items
        that expired.  All-``None`` contexts are normalized away so the
        no-deadline path is byte-for-byte the pre-context call.
        """
        if ctxs is not None and not any(ctx is not None for ctx in ctxs):
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

    def _store_result(self, result: TicketResult) -> None:
        # Caller holds _lock.
        while len(self._results) >= self.results_capacity:
            self._results.popitem(last=False)
            self._m_evicted.inc()
        self._results[result.ticket_id] = result
        span = self._open_spans.pop(result.ticket_id, None)
        if span is not None:
            # The single funnel every outcome passes through is also
            # where the request's root span closes; ``done`` stamps (when
            # present) keep the span aligned with the lifecycle trace.
            span.end(at=result.trace.get("done"), status=result.status)
        event = self._events.pop(result.ticket_id, None)
        if event is not None:
            event.set()

    def _record_batch(self, occupancy: int) -> None:
        self._m_batches.inc()
        self._m_batch_occupancy_sum.inc(occupancy)
        if occupancy > self._m_batch_occupancy_max.value:
            self._m_batch_occupancy_max.set(occupancy)

    def _memoize(self, signature: str, plan: OptimizedPlan) -> None:
        # Caller holds _lock.
        if self.memo_capacity <= 0:  # caching disabled
            return
        if signature in self._memo:
            # Overwrite in place: evicting here would throw away an
            # unrelated cached plan without the memo growing.
            self._memo[signature] = plan
            self._memo.move_to_end(signature)
            return
        while self._memo and len(self._memo) >= self.memo_capacity:
            self._memo.popitem(last=False)
        self._memo[signature] = plan

    def _record_latency(self, latency_ms: float) -> None:
        self._m_latency.observe(latency_ms)

    def _record_stage(self, stage: str, duration_ms: float) -> None:
        # Clamped at 0: stage stamps come from separate clock reads, and
        # a sub-resolution interval must not surface as a negative
        # latency.  The histogram's ring buffer is bounded, so recording
        # never allocates.
        self._m_stages[stage].observe(max(0.0, duration_ms))

    def stage_latencies(self) -> Dict[str, List[float]]:
        """A snapshot of the per-stage duration windows (ms), for rollups."""
        return {
            stage: child.window_values().tolist()
            for stage, child in self._m_stages.items()
        }

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Serving telemetry: latencies, batching, memoization, lifecycle.

        ``requests = served + failures + expired``; ``rejected`` counts
        admission-control refusals, which never became requests at all.
        Per-stage percentiles (``stage_queue_p50_ms`` …) cover the four
        lifecycle durations: queued behind the flusher, inside the
        optimizer/engine, finalizing outcomes, and end-to-end total.

        Every value is a view over this service's labeled series in the
        process-global :mod:`repro.obs` registry — the keys (and their
        numpy percentile math) are unchanged from the pre-obs stats, so
        a Prometheus scrape and ``stats()`` can never disagree.
        """
        with self._lock:
            pending = len(self._pending)
            memo_size = len(self._memo)
            started = self._flusher_alive()
        latencies = self._m_latency.window_values()
        hits = int(self._m_hits.value)
        misses = int(self._m_misses.value)
        failures = int(self._m_failures.value)
        expired = int(self._m_expired.value)
        rejected = int(self._m_rejected.value)
        evictions = int(self._m_evicted.value)
        batch_count = int(self._m_batches.value)
        occupancy_sum = int(self._m_batch_occupancy_sum.value)
        occupancy_max = int(self._m_batch_occupancy_max.value)
        hook_errors = int(self._m_hook_errors.value)
        served = hits + misses
        stage_stats: Dict[str, float] = {}
        for stage, child in self._m_stages.items():
            window = child.window_values()
            for pct in (50, 95, 99):
                stage_stats[f"stage_{stage}_p{pct}_ms"] = (
                    float(np.percentile(window, pct)) if window.size else 0.0
                )
        return {
            "requests": served + failures + expired,
            "served": served,
            "failures": failures,
            "expired": expired,
            "rejected": rejected,
            "pending": pending,
            **stage_stats,
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": hits / served if served else 0.0,
            "memo_size": memo_size,
            "results_evicted": evictions,
            "obs_hook_errors": hook_errors,
            "started": 1.0 if started else 0.0,
            "latency_p50_ms": float(np.percentile(latencies, 50)) if latencies.size else 0.0,
            "latency_p95_ms": float(np.percentile(latencies, 95)) if latencies.size else 0.0,
            "latency_p99_ms": float(np.percentile(latencies, 99)) if latencies.size else 0.0,
            "latency_mean_ms": float(latencies.mean()) if latencies.size else 0.0,
            "batches": batch_count,
            "mean_batch_occupancy": (
                occupancy_sum / batch_count if batch_count else 0.0
            ),
            "max_batch_occupancy": occupancy_max,
        }
