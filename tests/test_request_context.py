"""The request lifecycle: contexts, deadlines, admission, tracing.

The contracts under test (see :mod:`repro.engine.context`):

* a :class:`RequestContext` is frozen, picklable, and its deadline is a
  relative *budget* anchored on the minting clock; the wire form carries
  the remaining budget and re-anchors on the receiver's clock;
* an already-expired submit is refused at the api layer — the SQL is
  never bound, no engine call happens — and counted as ``expired``,
  never ``failures``; a budget that runs out while queued is dropped at
  flush time the same way;
* both backends (local, remote wire) slot ``None`` for expired items
  inside ``plan_many``, the one engine call that takes contexts — while
  the live items' plans stay bitwise-identical to context-free planning;
* the remote handshake is strict — a server speaking another wire
  protocol version is refused at connect — and the retry policy
  distinguishes timeouts (retryable, :class:`RemoteTimeoutError`) from
  connection-refused (fail fast);
* ``max_pending`` bounds the queue with a typed
  :class:`AdmissionRejectedError` *before* a ticket is issued, and
  stage durations surface as p50/p95/p99 in service stats;
* tenant sessions over one shared backend keep their own queue bound,
  tenant name, deadlines and counters.

Everything here runs under the same watchdog as the other serving
suites: a wedged flush or socket must fail loudly, not hang tier-1.
"""

from __future__ import annotations

import dataclasses
import faulthandler
import os
import pickle
import socket
import threading
import time

import pytest

from repro.api import (
    STAGES,
    AdmissionRejectedError,
    DeadlineExceededError,
    FossConfig,
    FossSession,
    RequestContext,
)
from repro.core.aam import AAMConfig
from repro.engine.context import deadline_error, run_live
from repro.engine.remote import (
    EngineServer,
    RemoteBackend,
    RemoteEngineError,
    RemoteTimeoutError,
)
from repro.engine.wire import PROTOCOL_VERSION
from repro.optimizer.plans import plan_signature

# Per-test deadlock guard: generous against 1-CPU CI, tiny against a hang.
WATCHDOG_S = 180.0
WAIT_S = 120.0
CLIENT_TIMEOUT_S = 60.0


def _watchdog_fire() -> None:  # pragma: no cover - only on deadlock
    faulthandler.dump_traceback()
    os._exit(2)


@pytest.fixture(autouse=True)
def deadlock_watchdog():
    """Fail fast (with stacks) instead of hanging the suite on a hung flush."""
    timer = threading.Timer(WATCHDOG_S, _watchdog_fire)
    timer.daemon = True
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


def tiny_config(**overrides) -> FossConfig:
    defaults = dict(
        max_steps=3,
        episodes_per_update=8,
        bootstrap_episodes=6,
        aam_retrain_threshold=40,
        random_sample_episodes=1,
        validation_budget=5,
        seed=33,
        aam=AAMConfig(
            d_model=32, d_embed=8, d_state=32, num_heads=2, num_layers=1,
            ff_hidden=32, epochs=1,
        ),
    )
    defaults.update(overrides)
    return FossConfig(**defaults)


@pytest.fixture(scope="module")
def api_session(job_workload) -> FossSession:
    """An untrained (deterministically initialized) session over JOB."""
    return FossSession.open(workload=job_workload, config=tiny_config())


@pytest.fixture(scope="module")
def engine_server(job_workload):
    # The server rebuilds its own engine from the spec, like a real deploy.
    with EngineServer(job_workload.spec.build_database()) as server:
        server.start()
        yield server


@pytest.fixture(scope="module")
def remote_backend(engine_server, job_workload):
    with RemoteBackend(
        engine_server.url, timeout_s=CLIENT_TIMEOUT_S
    ) as backend:
        yield backend


def expired_ctx(**overrides) -> RequestContext:
    """A context whose budget has already run out."""
    kwargs = dict(tenant="t", deadline_s=0.0)
    kwargs.update(overrides)
    return RequestContext.mint(**kwargs)


def live_ctx(**overrides) -> RequestContext:
    """A context with plenty of budget left."""
    kwargs = dict(tenant="t", deadline_s=600.0)
    kwargs.update(overrides)
    return RequestContext.mint(**kwargs)


# ----------------------------------------------------------------------
# the context itself: minting, arithmetic, wire form
# ----------------------------------------------------------------------
class TestRequestContext:
    def test_mint_ids_are_unique_and_tenant_prefixed(self):
        ids = {RequestContext.mint(tenant="alpha").request_id for _ in range(100)}
        assert len(ids) == 100
        assert all(rid.startswith("alpha-") for rid in ids)
        assert RequestContext.mint().request_id.startswith("req-")

    def test_mint_rejects_negative_deadline(self):
        with pytest.raises(ValueError, match="deadline_s"):
            RequestContext.mint(deadline_s=-1.0)

    def test_contexts_are_frozen_and_picklable(self):
        ctx = RequestContext.mint(tenant="a", deadline_s=5.0, priority=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.priority = 9  # type: ignore[misc]
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone == ctx

    def test_deadline_arithmetic_with_explicit_now(self):
        ctx = RequestContext("r-1", submitted_at=100.0, deadline_s=2.0)
        assert ctx.deadline_at == 102.0
        assert ctx.remaining_s(now=101.0) == pytest.approx(1.0)
        assert ctx.remaining_s(now=103.0) == 0.0  # clamped, never negative
        assert not ctx.expired(now=101.999)
        assert ctx.expired(now=102.0)

    def test_no_deadline_never_expires(self):
        ctx = RequestContext("r-2", submitted_at=0.0)
        assert ctx.deadline_at is None
        assert ctx.remaining_s(now=1e9) is None
        assert not ctx.expired(now=1e9)

    def test_wire_round_trip_reanchors_remaining_budget(self):
        ctx = RequestContext(
            "r-3", tenant="beta", submitted_at=50.0, deadline_s=10.0, priority=2
        )
        data = ctx.to_wire(now=53.0)  # 7s of budget left at encode time
        assert data == {"id": "r-3", "tenant": "beta", "priority": 2, "ttl_s": 7.0}
        restored = RequestContext.from_wire(data)
        assert restored.request_id == "r-3"
        assert restored.tenant == "beta"
        assert restored.priority == 2
        assert restored.deadline_s == pytest.approx(7.0)
        # Re-anchored on the *receiving* clock, not the sender's stamp.
        assert restored.remaining_s() == pytest.approx(7.0, abs=0.5)

    def test_wire_form_omits_absent_fields(self):
        data = RequestContext("r-4", submitted_at=0.0).to_wire()
        assert data == {"id": "r-4"}
        restored = RequestContext.from_wire(data)
        assert restored.deadline_s is None and restored.priority == 0
        assert RequestContext.from_wire(None) is None

    def test_stage_names_are_the_documented_lifecycle(self):
        assert STAGES == ("enqueue", "flush", "engine", "done")


# ----------------------------------------------------------------------
# admission control: bounded queue, typed rejection
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_full_queue_rejects_before_issuing_a_ticket(self, api_session, job_workload):
        sqls = [wq.sql for wq in job_workload.train[:3]]
        service = api_session.service(max_pending=2)
        tickets = [service.submit(sql) for sql in sqls[:2]]
        with pytest.raises(AdmissionRejectedError, match="max_pending=2"):
            service.submit(sqls[2])
        stats = service.stats()
        assert stats["rejected"] == 1
        assert stats["pending"] == 2
        # A rejection is not a request: it never entered the lifecycle.
        assert stats["requests"] == 0
        service.flush()
        assert all(service.result(t).ok for t in tickets)
        # The drained queue admits again.
        assert service.result(service.submit(sqls[2])).ok

    def test_max_pending_validation(self, api_session):
        with pytest.raises(ValueError, match="max_pending"):
            api_session.service(max_pending=0)


# ----------------------------------------------------------------------
# deadline matrix, api layer: at submit / while queued / mid-batch
# ----------------------------------------------------------------------
class TestServiceDeadlines:
    def test_already_expired_submit_never_binds(
        self, api_session, job_workload, monkeypatch
    ):
        def forbidden_bind(*args, **kwargs):  # pragma: no cover - the point
            raise AssertionError("an expired submit must never bind SQL")

        monkeypatch.setattr("repro.api.service.bind_sql", forbidden_bind)
        service = api_session.service()
        ticket = service.submit(job_workload.train[0].sql, deadline_s=0.0)
        result = service.result(ticket)
        assert result.expired and result.status == "expired"
        assert "before submission" in result.error
        assert result.context is not None and result.context.deadline_s == 0.0
        stats = service.stats()
        assert stats["expired"] == 1 and stats["failures"] == 0
        assert stats["requests"] == 1 and stats["served"] == 0

    def test_expires_while_queued_is_dropped_at_flush(self, api_session, job_workload):
        service = api_session.service()
        sql = job_workload.train[0].sql
        doomed = service.submit(sql, deadline_s=0.02)
        healthy = service.submit(sql)
        time.sleep(0.05)  # the doomed budget runs out behind the flusher
        service.flush()
        dropped = service.result(doomed)
        assert dropped.expired
        assert "while queued" in dropped.error
        assert service.result(healthy).ok  # same flush, unaffected
        stats = service.stats()
        assert stats["expired"] == 1 and stats["failures"] == 0
        assert stats["requests"] == 2 and stats["served"] == 1

    def test_sync_paths_raise_typed_and_count_expired(self, api_session, job_workload):
        service = api_session.service()
        sql = job_workload.train[0].sql
        with pytest.raises(DeadlineExceededError):
            service.optimize_sql(sql, deadline_s=0.0)
        with pytest.raises(DeadlineExceededError):
            service.execute_sql(sql, deadline_s=0.0)
        stats = service.stats()
        assert stats["expired"] == 2 and stats["failures"] == 0

    def test_expired_and_failed_stay_distinct(self, api_session, job_workload):
        service = api_session.service()
        ok = service.submit(job_workload.train[1].sql)
        bad = service.submit("SELECT * FROM no_such_table AS nst")
        dead = service.submit(job_workload.train[2].sql, deadline_s=0.0)
        service.flush()
        assert service.result(ok).ok
        assert service.result(bad).status == "failed"
        assert service.result(dead).status == "expired"
        stats = service.stats()
        assert stats["served"] == 1 and stats["failures"] == 1 and stats["expired"] == 1
        assert stats["requests"] == 3

    def test_priority_orders_flush_slices(self, api_session, job_workload):
        sqls = [wq.sql for wq in job_workload.train[:3]]
        service = api_session.service(max_batch_size=10)
        low_a = service.submit(sqls[0])
        low_b = service.submit(sqls[1])
        high = service.submit(sqls[2], priority=5)
        # Shrink the slice after enqueueing so the drain needs two slices:
        # the high-priority ticket must jump into the first one.
        service.max_batch_size = 2
        service.flush()
        results = {t: service.result(t) for t in (low_a, low_b, high)}
        assert all(r.ok for r in results.values())
        assert results[high].trace["engine"] <= results[low_a].trace["engine"]
        assert results[high].trace["done"] < results[low_b].trace["done"]

    def test_trace_holds_every_stage(self, api_session, job_workload):
        service = api_session.service()
        ticket = service.submit(job_workload.train[0].sql)
        service.flush()
        trace = service.result(ticket).trace
        assert list(trace) == list(STAGES)
        assert (
            trace["enqueue"] <= trace["flush"] <= trace["engine"] <= trace["done"]
        )

    def test_stage_percentiles_surface_in_stats(self, api_session, job_workload):
        service = api_session.service()
        for wq in job_workload.train[:3]:
            service.result(service.submit(wq.sql))
        stats = service.stats()
        for stage in ("queue", "engine", "finalize", "total"):
            for pct in (50, 95, 99):
                assert stats[f"stage_{stage}_p{pct}_ms"] >= 0.0
        assert stats["stage_total_p50_ms"] >= stats["stage_engine_p50_ms"]


# ----------------------------------------------------------------------
# deadline matrix, engine layer: both backends
# ----------------------------------------------------------------------
BACKENDS = ("local", "remote")


@pytest.fixture
def backend(request, job_workload):
    if request.param == "local":
        return job_workload.database
    return request.getfixturevalue(f"{request.param}_backend")


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
class TestBackendDeadlines:
    def test_plan_many_skips_expired_and_keeps_parity(self, backend, job_workload):
        queries = [wq.query for wq in job_workload.train[:3]]
        baseline = [plan_signature(p.plan) for p in backend.plan_many(queries)]
        results = backend.plan_many(queries, ctxs=[live_ctx(), expired_ctx(), None])
        assert results[1] is None
        assert plan_signature(results[0].plan) == baseline[0]
        assert plan_signature(results[2].plan) == baseline[2]

    def test_ctxs_length_mismatch_is_loud(self, backend, job_workload):
        queries = [wq.query for wq in job_workload.train[:2]]
        with pytest.raises(ValueError, match="ctxs"):
            backend.plan_many(queries, ctxs=[None])

    def test_live_deadlines_do_not_change_plans(self, backend, job_workload):
        queries = [wq.query for wq in job_workload.train[3:6]]
        baseline = [plan_signature(p.plan) for p in backend.plan_many(queries)]
        ctxs = [live_ctx() for _ in queries]
        steered = [
            plan_signature(p.plan) for p in backend.plan_many(queries, ctxs=ctxs)
        ]
        assert steered == baseline


class TestOptimizerDeadlines:
    def test_optimize_many_slots_typed_errors_mid_batch(self, api_session, job_workload):
        optimizer = api_session.optimizer()
        queries = [wq.query for wq in job_workload.train[:3]]
        baseline = [plan_signature(p.plan) for p in optimizer.optimize_many(queries)]
        outcomes = optimizer.optimize_many(
            queries, ctxs=[None, expired_ctx(), live_ctx()]
        )
        assert isinstance(outcomes[1], DeadlineExceededError)
        assert plan_signature(outcomes[0].plan) == baseline[0]
        assert plan_signature(outcomes[2].plan) == baseline[2]

    def test_expired_singleton_raises(self, api_session, job_workload):
        with pytest.raises(DeadlineExceededError):
            api_session.optimizer().optimize(
                job_workload.train[0].query, ctx=expired_ctx()
            )

    def test_untraced_deadline_reaches_backend_planning(
        self, api_session, job_workload, monkeypatch
    ):
        """A deadline rides to the engine's planning call, traced or not."""
        database = api_session.optimizer().database
        plan_many = database.plan_many
        seen = []

        def spy(queries, options=None, ctxs=None):
            seen.append(ctxs)
            return plan_many(queries, options, ctxs=ctxs)

        monkeypatch.setattr(database, "plan_many", spy)
        ctx = live_ctx()
        assert ctx.trace_id is None
        api_session.service().optimize_sql(job_workload.train[5].sql, ctx=ctx)
        assert any(ctxs is not None and ctx in ctxs for ctxs in seen)


def _fill_none(ctx):
    return None


def _fill_error(ctx):
    return DeadlineExceededError(ctx.request_id)


class TestRunLive:
    """``run_live``: the one expiry split every batch layer shares."""

    @pytest.mark.parametrize("dead", [_fill_none, _fill_error], ids=["none", "error"])
    @pytest.mark.parametrize(
        "expired_at", [(), (1,), (0, 1, 2)], ids=["none-expired", "some-expired", "all-expired"]
    )
    def test_live_items_run_once_and_expired_slots_are_filled(self, dead, expired_at):
        ctxs = [expired_ctx() if i in expired_at else live_ctx() for i in range(3)]
        calls = []

        def fn(items, live_ctxs):
            calls.append((list(items), list(live_ctxs)))
            return [item * 10 for item in items]

        out = run_live([1, 2, 3], ctxs, fn, dead)
        live = [i for i in range(3) if i not in expired_at]
        if live:
            assert calls == [([i + 1 for i in live], [ctxs[i] for i in live])]
        else:
            assert calls == []
        for i, result in enumerate(out):
            if i in expired_at:
                filled = dead(ctxs[i])
                assert type(result) is type(filled)
                assert str(result) == str(filled)
            else:
                assert result == (i + 1) * 10

    def test_no_contexts_runs_the_whole_batch(self):
        out = run_live([1, 2], None, lambda items, ctxs: [(i, ctxs) for i in items], _fill_none)
        assert out == [(1, None), (2, None)]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="ctxs"):
            run_live([1, 2], [None], lambda items, ctxs: items, _fill_none)

    def test_deadline_error_names_request_and_stage(self):
        ctx = expired_ctx()
        error = deadline_error(ctx, "planning")
        assert isinstance(error, DeadlineExceededError)
        assert ctx.request_id in str(error) and str(error).endswith("before planning")


# ----------------------------------------------------------------------
# the remote wire: the strict handshake and the retry taxonomy
# ----------------------------------------------------------------------
class TestWireProtocol:
    def test_handshake_negotiates_protocol_v2(self, remote_backend):
        assert remote_backend.server_info["protocol"] == PROTOCOL_VERSION

    def test_timeout_is_typed_retryable(self, job_workload):
        # A black-hole server: accepts connections (backlog) but never
        # answers, so every attempt times out.
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        try:
            start = time.monotonic()
            with pytest.raises(RemoteTimeoutError, match="timed out"):
                RemoteBackend(
                    f"tcp://127.0.0.1:{port}",
                    timeout_s=0.2,
                    max_reconnects=1,
                    reconnect_backoff_s=0.01,
                )
            assert time.monotonic() - start < WATCHDOG_S / 4
        finally:
            listener.close()

    def test_connection_refused_fails_fast_without_retries(self, job_workload):
        # Grab a port the OS just released: nothing listens there.
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        start = time.monotonic()
        with pytest.raises(RemoteEngineError, match="connection refused"):
            RemoteBackend(
                f"tcp://127.0.0.1:{port}",
                timeout_s=CLIENT_TIMEOUT_S,
                max_reconnects=5,
                reconnect_backoff_s=30.0,  # would cost minutes if retried
            )
        assert time.monotonic() - start < 10.0, "refused must not burn backoff"

    def test_timeout_error_is_a_remote_engine_error(self):
        # Callers catching the broad type keep working.
        assert issubclass(RemoteTimeoutError, RemoteEngineError)


# ----------------------------------------------------------------------
# tenants: sessions over one shared backend, each with its own limits
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
class TestTenantLifecycle:
    @pytest.fixture
    def tenants(self, backend, job_workload):
        """Services of two sessions over one injected backend; alpha's
        queue holds one request, beta's is unbounded."""
        sessions = [
            FossSession.open(workload=job_workload, config=tiny_config(), backend=backend)
            for _ in range(2)
        ]
        try:
            yield (
                sessions[0].service(tenant="alpha", max_pending=1),
                sessions[1].service(tenant="beta"),
            )
        finally:
            for session in sessions:
                session.close()

    @staticmethod
    def assert_counts_its_own(service, requests: int) -> dict:
        stats = service.stats()
        assert stats["requests"] == requests
        assert stats["requests"] == stats["served"] + stats["failures"] + stats["expired"]
        return stats

    def test_max_pending_and_tenant_act_per_tenant(self, tenants, job_workload):
        alpha, beta = tenants
        sqls = [wq.sql for wq in job_workload.train[:3]]
        admitted = alpha.submit(sqls[0])
        assert admitted.context.tenant == "alpha"
        with pytest.raises(AdmissionRejectedError, match="max_pending=1"):
            alpha.submit(sqls[1])
        # alpha's full queue is alpha's alone.
        others = [beta.submit(sql) for sql in sqls]
        assert [ticket.context.tenant for ticket in others] == ["beta"] * len(sqls)
        assert alpha.result(admitted).ok
        assert all(beta.result(ticket).ok for ticket in others)
        assert self.assert_counts_its_own(alpha, 1)["rejected"] == 1
        assert self.assert_counts_its_own(beta, len(sqls))["rejected"] == 0

    def test_deadline_and_priority_act_per_tenant(self, tenants, job_workload):
        alpha, beta = tenants
        sql = job_workload.train[1].sql
        ticket = alpha.submit(sql, deadline_s=600.0, priority=2)
        assert ticket.context.priority == 2
        assert ticket.context.tenant == "alpha"
        assert alpha.wait(ticket, timeout=WAIT_S).ok
        dead = beta.submit(sql, deadline_s=0.0)
        assert dead.context.tenant == "beta"
        assert beta.result(dead).expired
        assert self.assert_counts_its_own(alpha, 1)["expired"] == 0
        assert self.assert_counts_its_own(beta, 1)["expired"] == 1
