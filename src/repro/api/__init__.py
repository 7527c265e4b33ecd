"""The stable public API: a SQL-text-in / plan-out facade over the system.

This package is the one layer everything deployment-shaped goes through —
examples, the experiment harness, benchmarks, and any future remote or
async backend:

* :class:`FossSession` — lifecycle facade: builds workload + engine
  backend, trains the doctor, persists/reloads it as one artifact, and
  hands out the deployable optimizer.  Tenants are sessions opened over
  one injected backend (``FossSession.open(..., backend=shared)``), each
  serving through its own ``service(tenant=...)``; a session never closes
  a backend it was handed;
* :class:`OptimizerService` — request/response serving: ``submit(sql) ->
  PlanTicket`` / ``result(ticket)`` with micro-batched flushes, plus the
  synchronous ``optimize_sql(sql) -> OptimizedPlan`` and
  ``execute_sql(sql)``, memoized by query signature with latency/batch/
  cache telemetry in ``stats()``.  Thread-safe: ``start()``/``stop()`` run
  a background flusher that micro-batches submissions from many client
  threads (size- and time-triggered), and ``wait(ticket, timeout)`` blocks
  on a per-ticket event;
* :class:`RequestContext` — the typed envelope every request carries
  across layers (request id, tenant, ``deadline_s`` budget, priority),
  minted by the serving entry points unless the caller passes one;
  deadlines propagate down to the engine backends and across the remote
  wire, and each lifecycle stage is stamped for tracing.  Minting with
  ``traced=True`` additionally joins the request into a :mod:`repro.obs`
  trace whose spans cross the remote wire and come back joined
  (``FossSession.observability()`` exposes the registry snapshot and
  Prometheus/JSON exporters);
* :func:`create_optimizer` — named construction (``"foss"``,
  ``"postgres"``, ``"bao"``, ``"balsa"``, ``"loger"``, ``"hybridqo"``, plus
  anything registered via :func:`register_optimizer`);
* :class:`OptimizeError` — the single typed failure for unparseable or
  unbindable input; :class:`TicketEvictedError` — the ticket was served
  but its outcome aged out of the bounded results store;
  :class:`DeadlineExceededError` — a deadline budget ran out (counted as
  ``expired``, never ``failures``); :class:`AdmissionRejectedError` — the
  bounded pending queue was full at submit (counted as ``rejected``);
  :class:`CheckpointError` — ``FossSession.load`` refused a checkpoint.

Serving honors the repo's determinism contracts: plans are batch-size
invariant, bitwise-identical across the local and remote engines, and
bitwise-identical under concurrent submission (only ordering and
telemetry may differ between threaded and sequential serving).
"""

from repro.api.context import STAGES, AdmissionRejectedError
from repro.api.registry import available_optimizers, create_optimizer, register_optimizer
from repro.api.service import (
    OptimizerService,
    PlanTicket,
    TicketEvictedError,
    TicketResult,
)
from repro.api.session import FossSession
from repro.core.inference import FossOptimizer, OptimizedPlan, bind_sql
from repro.core.persistence import CheckpointError
from repro.core.trainer import FossConfig
from repro.engine.context import (
    CLOCK,
    DeadlineExceededError,
    MonotonicClock,
    OptimizeError,
    RequestContext,
)

__all__ = [
    "FossSession",
    "OptimizerService",
    "PlanTicket",
    "TicketEvictedError",
    "TicketResult",
    "RequestContext",
    "MonotonicClock",
    "CLOCK",
    "STAGES",
    "AdmissionRejectedError",
    "CheckpointError",
    "DeadlineExceededError",
    "OptimizedPlan",
    "FossOptimizer",
    "FossConfig",
    "OptimizeError",
    "bind_sql",
    "create_optimizer",
    "register_optimizer",
    "available_optimizers",
]
