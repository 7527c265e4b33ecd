"""Multi-tenant serving: N named sessions over one shared engine.

``ServiceGroup`` is the deployment shape the ROADMAP's north star names —
per-tenant plan doctors sharing one engine — without hand-wiring the
pieces: each tenant gets its own :class:`~repro.api.session.FossSession`
(own trainer/optimizer, own :class:`~repro.api.service.OptimizerService`
with its own memo and stats), while every tenant's planning and execution
RPCs route through **one** shared :class:`~repro.engine.backend.EngineBackend`
(the workload's in-process engine, or one shared
:class:`~repro.engine.remote.client.RemoteBackend` when ``engine_url``
points at a ``repro-engine`` server):

    from repro.api import ServiceGroup

    with ServiceGroup.open("job", tenants=("alpha", "beta"),
                           scale=0.05) as group:
        group.start()                      # one flusher per tenant
        ticket = group.submit("alpha", "SELECT COUNT(*) FROM title AS t ...")
        plan = group.wait("alpha", ticket, timeout=30).plan

Isolation and sharing are split exactly along the determinism contract:
models, memos and telemetry are per-tenant; the engine — a pure function
of the dataset — is shared, so concurrent tenants cost one dataset and one
engine instead of N.  The backend's request path is thread-safe (the local
engine serializes its entry points; the remote client holds a lock per
connection across each round trip), so tenants can have RPCs in flight
simultaneously.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.api.service import OptimizerService, PlanTicket, TicketResult
from repro.api.session import FossSession
from repro.core.trainer import FossConfig
from repro.engine.backend import EngineBackend, make_backend
from repro.engine.context import RequestContext
from repro.workloads.base import Workload, build_workload_by_name

# stats() adds synthetic top-level keys next to the per-tenant dicts, so
# these names cannot also be tenants.
RESERVED_TENANT_NAMES = ("backend", "group")


class ServiceGroup:
    """Named tenant sessions + services over one shared engine backend."""

    def __init__(
        self,
        sessions: "OrderedDict[str, FossSession]",
        backend: EngineBackend,
        owns_backend: bool = True,
        max_pending: Optional[int] = None,
    ) -> None:
        if not sessions:
            raise ValueError("ServiceGroup needs at least one tenant")
        for reserved in RESERVED_TENANT_NAMES:
            if reserved in sessions:
                raise ValueError(
                    f"tenant name {reserved!r} is reserved (stats() uses it "
                    f"for the shared backend's counters and the group rollup)"
                )
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None for unbounded)")
        self.backend = backend
        self._owns_backend = owns_backend
        self._sessions = OrderedDict(sessions)
        self._services: Dict[str, OptimizerService] = {}
        # Per-tenant queue-depth default, applied when each tenant's
        # service is first built (explicit service(..., max_pending=...)
        # kwargs win).
        self.max_pending = max_pending
        self._lock = threading.Lock()  # guards lazy per-tenant service builds
        self._closed = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        workload: Union[str, Workload] = "job",
        tenants: Union[Sequence[str], Mapping[str, FossConfig]] = ("tenant-0", "tenant-1"),
        *,
        scale: float = 1.0,
        seed: int = 1,
        config: Optional[FossConfig] = None,
        engine_url: Optional[str] = None,
        backend: Optional[EngineBackend] = None,
        max_pending: Optional[int] = None,
    ) -> "ServiceGroup":
        """Stand up one workload + engine and a session per tenant.

        ``tenants`` is either a sequence of names (every tenant shares
        ``config``) or a name → :class:`FossConfig` mapping for per-tenant
        configs.  The shared backend is built once — remote when
        ``engine_url`` (default: the config's ``engine_url``) names a
        ``repro-engine`` server, else the workload's in-process engine —
        and injected into every session, which therefore does not own (or
        close) it; the group does.  All tenants share the one remote
        connection pool the same way they share the local engine.
        """
        base_config = config if config is not None else FossConfig()
        if isinstance(tenants, Mapping):
            tenant_configs = OrderedDict(tenants)
        else:
            names = list(tenants)
            if len(names) != len(set(names)):
                raise ValueError("tenant names must be unique")
            tenant_configs = OrderedDict((name, base_config) for name in names)
        if not tenant_configs:
            raise ValueError("ServiceGroup.open needs at least one tenant name")
        for reserved in RESERVED_TENANT_NAMES:
            if reserved in tenant_configs:
                # Validate before paying for the dataset build.
                raise ValueError(
                    f"tenant name {reserved!r} is reserved (stats() uses it "
                    f"for the shared backend's counters and the group rollup)"
                )
        if isinstance(workload, str):
            workload = build_workload_by_name(workload, scale=scale, seed=seed)
        elif not isinstance(workload, Workload):
            raise TypeError(
                f"workload must be a name or a Workload, got {type(workload).__name__}"
            )
        owns_backend = backend is None
        if backend is None:
            url = engine_url if engine_url is not None else base_config.engine_url
            backend = make_backend(workload, url)
        sessions: "OrderedDict[str, FossSession]" = OrderedDict()
        for name, tenant_config in tenant_configs.items():
            sessions[name] = FossSession.open(
                workload=workload, config=tenant_config, backend=backend
            )
        return cls(
            sessions, backend, owns_backend=owns_backend, max_pending=max_pending
        )

    # ------------------------------------------------------------------
    # tenants
    # ------------------------------------------------------------------
    @property
    def tenants(self) -> List[str]:
        return list(self._sessions)

    def session(self, tenant: str) -> FossSession:
        try:
            return self._sessions[tenant]
        except KeyError:
            raise KeyError(
                f"unknown tenant {tenant!r}; have {sorted(self._sessions)}"
            ) from None

    def service(self, tenant: str, **kwargs) -> OptimizerService:
        """The tenant's :class:`OptimizerService`, built on first use.

        ``kwargs`` (memo/results capacities, batch size, flush interval,
        queue depth) apply only on the first call for a tenant — the built
        service is cached and shared by every later caller.  The tenant's
        name and the group's ``max_pending`` default are injected unless
        the kwargs override them.
        """
        session = self.session(tenant)  # raises on unknown tenants
        with self._lock:
            self._check_open()
            existing = self._services.get(tenant)
        if existing is not None:
            return existing
        kwargs.setdefault("tenant", tenant)
        if self.max_pending is not None:
            kwargs.setdefault("max_pending", self.max_pending)
        # Build outside the group lock: the first build pays the session's
        # lazy optimizer construction, and other tenants' requests must not
        # stall behind it.  A concurrent duplicate build loses to
        # setdefault (the session memoizes the heavy optimizer, so the
        # loser only wasted a thin wrapper).
        built = session.service(**kwargs)
        with self._lock:
            self._check_open()
            return self._services.setdefault(tenant, built)

    # ------------------------------------------------------------------
    # serving conveniences (thread-safe via the per-tenant services)
    # ------------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        sql: str,
        ctx: Optional[RequestContext] = None,
        deadline_s: Optional[float] = None,
        priority: int = 0,
    ) -> PlanTicket:
        return self.service(tenant).submit(
            sql, ctx=ctx, deadline_s=deadline_s, priority=priority
        )

    def result(self, tenant: str, ticket, timeout: Optional[float] = None) -> TicketResult:
        return self.service(tenant).result(ticket, timeout=timeout)

    def wait(self, tenant: str, ticket, timeout: Optional[float] = None) -> TicketResult:
        return self.service(tenant).wait(ticket, timeout=timeout)

    def optimize_sql(
        self,
        tenant: str,
        sql: str,
        ctx: Optional[RequestContext] = None,
        deadline_s: Optional[float] = None,
    ):
        return self.service(tenant).optimize_sql(sql, ctx=ctx, deadline_s=deadline_s)

    def execute_sql(
        self,
        tenant: str,
        sql: str,
        timeout_ms: Optional[float] = None,
        ctx: Optional[RequestContext] = None,
        deadline_s: Optional[float] = None,
    ):
        return self.service(tenant).execute_sql(
            sql, timeout_ms=timeout_ms, ctx=ctx, deadline_s=deadline_s
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServiceGroup":
        """Start every tenant's background flusher (building services lazily)."""
        for tenant in self.tenants:
            self.service(tenant).start()
        return self

    def stop(self) -> None:
        """Stop every started tenant flusher and drain their queues.

        Every tenant is stopped even if one raises (e.g. a wedged flusher
        timing out its join); the first error is re-raised at the end.
        """
        with self._lock:
            services = list(self._services.values())
        first_error: Optional[Exception] = None
        for service in services:
            try:
                service.stop()
            except Exception as exc:
                first_error = first_error or exc
        if first_error is not None:
            raise first_error

    # Counters summed across tenants into the "group" rollup.
    _ROLLUP_COUNTERS = (
        "requests",
        "served",
        "failures",
        "expired",
        "rejected",
        "pending",
        "cache_hits",
        "cache_misses",
        "results_evicted",
        "batches",
        "obs_hook_errors",
    )

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant serving stats plus two synthetic entries.

        ``"backend"`` carries the shared backend's counters, and ``"group"``
        is the cross-tenant rollup: lifecycle counters summed over every
        built tenant service and stage percentiles recomputed over the
        *pooled* per-request windows (percentiles cannot be averaged
        per-tenant without bias).
        """
        with self._lock:
            services = dict(self._services)
        out: Dict[str, Dict[str, float]] = {
            tenant: service.stats() for tenant, service in services.items()
        }
        rollup: Dict[str, float] = {
            counter: float(
                sum(stats.get(counter, 0) for stats in out.values())
            )
            for counter in self._ROLLUP_COUNTERS
        }
        rollup["cache_hit_rate"] = (
            rollup["cache_hits"] / rollup["served"] if rollup["served"] else 0.0
        )
        pooled: Dict[str, List[float]] = {}
        for service in services.values():
            for stage, window in service.stage_latencies().items():
                pooled.setdefault(stage, []).extend(window)
        for stage, window in pooled.items():
            data = np.asarray(window, dtype=float)
            for pct in (50, 95, 99):
                rollup[f"stage_{stage}_p{pct}_ms"] = (
                    float(np.percentile(data, pct)) if data.size else 0.0
                )
        rollup["tenants"] = float(len(services))
        out["group"] = rollup
        out["backend"] = self.backend.stats()
        return out

    def close(self) -> None:
        """Stop services, close every session, then the shared backend; idempotent.

        Sessions and the backend are released even if a wedged flusher
        makes :meth:`stop` raise — a failed stop must not leak a remote
        backend's connections.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.stop()
        finally:
            for session in self._sessions.values():
                session.close()  # sessions do not own the injected backend
            if self._owns_backend:
                close = getattr(self.backend, "close", None)
                if close is not None:
                    close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ServiceGroup is closed")

    def __enter__(self) -> "ServiceGroup":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
