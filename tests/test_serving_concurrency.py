"""Concurrent serving: thread-safe OptimizerService, tenants sharing a backend.

The contracts under test:

* N client threads submitting a shuffled workload through a *started*
  service receive plans bitwise-identical to the sequential
  single-threaded path (engine results are pure functions of the
  dataset; only ordering/telemetry may differ), at one thread or several,
  with or without a queue bound and a deadline that cannot fire;
* two tenant sessions opened over one injected backend serve their own
  traffic through that one engine with no cross-tenant contamination;
* the background flusher honours both triggers (queue size, time) and
  stop() drains; ``wait`` blocks on a per-ticket event and times out
  loudly;
* regression coverage for the three PR-4 bugfixes: memo overwrite must
  not evict, evicted tickets raise ``TicketEvictedError`` (not "unknown
  ticket"), and ``stats()`` counters stay consistent on every path.

Every blocking call in this module carries a timeout, and an autouse
watchdog dumps all stacks and kills the process if a test wedges — a
deadlocked flusher must fail fast, not hang tier-1.
"""

from __future__ import annotations

import faulthandler
import os
import threading

import numpy as np
import pytest

from repro.api import (
    FossConfig,
    FossSession,
    TicketEvictedError,
)
from repro.core.aam import AAMConfig
from repro.optimizer.plans import plan_signature

# Per-test deadlock guard: generous against 1-CPU CI, tiny against a hang.
WATCHDOG_S = 180.0
# Bound for every in-test blocking wait; well under the watchdog.
WAIT_S = 120.0
CLIENT_THREADS = 4


def _watchdog_fire() -> None:  # pragma: no cover - only on deadlock
    faulthandler.dump_traceback()
    os._exit(2)


@pytest.fixture(autouse=True)
def deadlock_watchdog():
    """Fail fast (with stacks) instead of hanging the suite on a deadlock."""
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


def shuffled_requests(workload, unique: int = 6, copies: int = 3, seed: int = 0):
    """A shuffled serving trace: ``unique`` distinct queries, repeated."""
    sqls = [wq.sql for wq in workload.train[:unique]] * copies
    rng = np.random.default_rng(seed)
    return [sqls[i] for i in rng.permutation(len(sqls))]


def reference_signatures(session, sqls):
    """sql -> plan signature via a fresh sequential, unstarted service."""
    service = session.service()
    return {sql: plan_signature(service.optimize_sql(sql).plan) for sql in set(sqls)}


def run_concurrent_clients(service, sqls, num_threads: int = CLIENT_THREADS, **submit_kwargs):
    """Drive the service from ``num_threads`` submit/wait client threads."""
    results = [None] * len(sqls)
    errors = []

    def client(thread_index: int) -> None:
        try:
            for i in range(thread_index, len(sqls), num_threads):
                ticket = service.submit(sqls[i], **submit_kwargs)
                results[i] = service.wait(ticket, timeout=WAIT_S)
        except Exception as exc:  # surfaced below — a client must not die silently
            errors.append((thread_index, repr(exc)))

    threads = [
        threading.Thread(target=client, args=(t,), daemon=True)
        for t in range(num_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(WAIT_S)
    assert not any(thread.is_alive() for thread in threads), "client threads hung"
    assert not errors, f"client threads failed: {errors}"
    assert all(result is not None for result in results)
    return results


# ----------------------------------------------------------------------
# concurrency parity: threaded == sequential
# ----------------------------------------------------------------------
class TestConcurrentParity:
    def test_threaded_equals_sequential_local(self, api_session):
        """One client thread, several, and several under a queue bound and a
        deadline that cannot fire: the same plans, and nothing rejected,
        expired, failed or left pending."""
        sqls = shuffled_requests(api_session.workload)
        expected = reference_signatures(api_session, sqls)

        guarded = (dict(max_pending=len(sqls)), dict(deadline_s=600.0, priority=0))
        for num_threads, (service_kwargs, submit_kwargs) in (
            (1, ({}, {})),
            (CLIENT_THREADS, ({}, {})),
            (CLIENT_THREADS, guarded),
        ):
            service = api_session.service(max_batch_size=4, **service_kwargs)
            with service.start():
                results = run_concurrent_clients(service, sqls, num_threads, **submit_kwargs)
            assert all(r.ok for r in results)
            assert [plan_signature(r.plan.plan) for r in results] == [
                expected[sql] for sql in sqls
            ]
            stats = service.stats()
            assert stats["requests"] == len(sqls)
            assert stats["requests"] == stats["served"] + stats["failures"]
            assert stats["failures"] == 0
            assert stats["pending"] == 0
            assert stats["rejected"] == 0 and stats["expired"] == 0

    def test_concurrent_sync_optimize_sql(self, api_session):
        """The synchronous path is thread-safe too (no flusher involved)."""
        sqls = shuffled_requests(api_session.workload, unique=4, copies=2)
        expected = reference_signatures(api_session, sqls)
        service = api_session.service()
        signatures = [None] * len(sqls)
        errors = []

        def client(thread_index: int) -> None:
            try:
                for i in range(thread_index, len(sqls), CLIENT_THREADS):
                    signatures[i] = plan_signature(service.optimize_sql(sqls[i]).plan)
            except Exception as exc:
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=client, args=(t,), daemon=True)
            for t in range(CLIENT_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WAIT_S)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert signatures == [expected[sql] for sql in sqls]


# ----------------------------------------------------------------------
# multi-tenant: sessions that share one engine backend
# ----------------------------------------------------------------------
class TestSharedBackend:
    def test_two_tenants_share_one_pool(self, job_workload, api_session):
        sqls = shuffled_requests(job_workload, unique=4, copies=2)
        expected = reference_signatures(api_session, sqls)
        backend = job_workload.database
        tenants = ("alpha", "beta")
        sessions = [
            FossSession.open(workload=job_workload, config=tiny_config(), backend=backend)
            for _ in tenants
        ]
        services = {}
        try:
            # One engine: both tenant sessions hold the very same backend.
            assert all(session.backend is backend for session in sessions)
            for tenant, session in zip(tenants, sessions):
                services[tenant] = session.service(tenant=tenant).start()
            outcomes = {}
            errors = []

            def tenant_client(tenant: str) -> None:
                try:
                    service = services[tenant]
                    tickets = [service.submit(sql) for sql in sqls]
                    outcomes[tenant] = [
                        service.wait(ticket, timeout=WAIT_S) for ticket in tickets
                    ]
                except Exception as exc:
                    errors.append((tenant, repr(exc)))

            threads = [
                threading.Thread(target=tenant_client, args=(tenant,), daemon=True)
                for tenant in tenants
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(WAIT_S)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors

            # Both tenants' concurrent traffic over the shared engine still
            # yields the sequential single-tenant plans: no cross-tenant
            # contamination.
            for tenant in tenants:
                assert all(r.ok for r in outcomes[tenant])
                assert all(r.context.tenant == tenant for r in outcomes[tenant])
                assert [plan_signature(r.plan.plan) for r in outcomes[tenant]] == [
                    expected[sql] for sql in sqls
                ]

            # Tenant isolation: each service counted only its own traffic.
            for service in services.values():
                stats = service.stats()
                assert stats["requests"] == len(sqls)
                assert stats["requests"] == stats["served"] + stats["failures"]
            assert backend.stats()["backend"] == "local"
        finally:
            for service in services.values():
                service.stop()
            for session in sessions:
                session.close()


# ----------------------------------------------------------------------
# flusher lifecycle
# ----------------------------------------------------------------------
class TestFlusherLifecycle:
    def test_time_triggered_flush(self, api_session):
        """Submissions resolve via the timer with no size trigger and no
        manual flush."""
        sqls = shuffled_requests(api_session.workload, unique=3, copies=1)
        service = api_session.service(max_batch_size=100, flush_interval_ms=10.0)
        service.start()
        try:
            tickets = [service.submit(sql) for sql in sqls]
            results = [service.wait(t, timeout=WAIT_S) for t in tickets]
        finally:
            service.stop()
        assert all(r.ok for r in results)
        assert service.stats()["pending"] == 0
        assert service.stats()["batches"] >= 1

    def test_flush_respects_max_batch_size_under_burst(self, api_session):
        """A burst that outruns the flusher still flushes in capped slices."""
        sqls = [wq.sql for wq in api_session.workload.train[:6]]  # distinct
        service = api_session.service(max_batch_size=2, flush_interval_ms=20.0)
        service.start()
        try:
            tickets = [service.submit(sql) for sql in sqls]
            results = [service.wait(t, timeout=WAIT_S) for t in tickets]
        finally:
            service.stop()
        assert all(r.ok for r in results)
        stats = service.stats()
        # 6 distinct queries through slices of <= 2: never one giant batch.
        assert stats["max_batch_occupancy"] <= 2
        assert stats["batches"] >= 3

    def test_start_stop_idempotent(self, api_session):
        service = api_session.service()
        assert not service.started
        service.stop()  # stop before start is a no-op
        service.start()
        assert service.started
        service.start()  # second start is a no-op
        service.stop()
        service.stop()
        assert not service.started

    def test_stop_drains_pending(self, api_session):
        sql = api_session.workload.train[0].sql
        # A huge interval: the timer will not fire within the test, so the
        # drain below is attributable to stop() alone.
        service = api_session.service(max_batch_size=100, flush_interval_ms=60_000.0)
        service.start()
        ticket = service.submit(sql)
        with pytest.raises(TimeoutError):
            service.wait(ticket, timeout=0.2)
        service.stop()
        assert service.result(ticket).ok

    def test_wait_resolves_failed_tickets_immediately(self, api_session):
        service = api_session.service()
        ticket = service.submit("definitely not sql (")
        result = service.wait(ticket, timeout=WAIT_S)
        assert not result.ok
        assert result.status == "failed"

    def test_wait_without_flusher_flushes_inline(self, api_session):
        sql = api_session.workload.train[0].sql
        service = api_session.service(max_batch_size=100)
        ticket = service.submit(sql)
        assert service.wait(ticket, timeout=WAIT_S).ok  # no flusher running


# ----------------------------------------------------------------------
# satellite regressions
# ----------------------------------------------------------------------
class TestMemoOverwriteRegression:
    def test_rememoize_existing_key_does_not_evict(self, api_session):
        sqls = [wq.sql for wq in api_session.workload.train[:2]]
        service = api_session.service(memo_capacity=2)
        plan_a = service.optimize_sql(sqls[0])
        plan_b = service.optimize_sql(sqls[1])
        assert service.stats()["memo_size"] == 2
        key_b = service.backend.sql(sqls[1]).key()
        # Re-memoizing a statement already present must overwrite in place;
        # the old behaviour popped the (unrelated) oldest entry first.
        service._memoize(key_b, plan_b)
        assert service.stats()["memo_size"] == 2
        first = service.stats()["cache_hits"]
        service.optimize_sql(sqls[0])  # still cached — nothing was evicted
        service.optimize_sql(sqls[1])
        assert service.stats()["cache_hits"] == first + 2
        assert plan_signature(service.optimize_sql(sqls[0]).plan) == plan_signature(
            plan_a.plan
        )


class TestTicketEviction:
    def test_evicted_ticket_raises_typed_error(self, api_session):
        sqls = shuffled_requests(api_session.workload, unique=4, copies=1)
        # Every submit flushes inline (batch size 1); capacity 2 keeps only
        # the last two outcomes, so the first two age out.
        service = api_session.service(max_batch_size=1, results_capacity=2)
        tickets = [service.submit(sql) for sql in sqls]
        assert service.result(tickets[-1]).ok
        assert service.result(tickets[-2]).ok
        with pytest.raises(TicketEvictedError, match="aged out"):
            service.result(tickets[0])
        assert service.stats()["results_evicted"] == 2
        # Evicted is a ValueError subclass (back-compat), but distinct from
        # the never-issued case, which stays "unknown ticket".
        assert issubclass(TicketEvictedError, ValueError)
        with pytest.raises(ValueError, match="unknown ticket"):
            service.result(12_345)

    def test_wait_on_evicted_ticket_raises(self, api_session):
        sqls = shuffled_requests(api_session.workload, unique=3, copies=1)
        service = api_session.service(max_batch_size=1, results_capacity=1)
        tickets = [service.submit(sql) for sql in sqls]
        with pytest.raises(TicketEvictedError):
            service.wait(tickets[0], timeout=WAIT_S)
        assert service.wait(tickets[-1], timeout=WAIT_S).ok


class TestStatsConsistency:
    def test_counters_consistent_across_mixed_paths(self, api_session):
        sqls = [wq.sql for wq in api_session.workload.train[:3]]
        bad_sql = "SELECT COUNT(*) FROM no_such_table AS x WHERE x.c = 1"
        service = api_session.service(max_batch_size=100)

        # Sync miss warms the memo; sync failure counts once.
        service.optimize_sql(sqls[0])
        with pytest.raises(Exception):
            service.optimize_sql(bad_sql)

        # One flush mixing: a memo hit, an in-flight duplicate, two misses,
        # and a binding failure (failed at submit, never queued).
        tickets = [
            service.submit(sqls[0]),  # memo hit
            service.submit(sqls[1]),  # miss
            service.submit(sqls[1]),  # duplicate of an in-flight miss -> hit
            service.submit(sqls[2]),  # miss
            service.submit(bad_sql),  # binding failure
        ]
        service.flush()
        results = [service.result(t) for t in tickets]

        stats = service.stats()
        assert stats["requests"] == stats["served"] + stats["failures"]
        assert stats["requests"] == 7
        assert stats["served"] == 5
        assert stats["failures"] == 2
        assert stats["cache_hits"] == 2
        assert stats["cache_misses"] == 3
        assert stats["cache_hit_rate"] == pytest.approx(2 / 5)
        assert stats["memo_size"] == 3
        assert stats["pending"] == 0
        # Per-ticket flags agree with the aggregate counters.
        assert [r.ok for r in results] == [True, True, True, True, False]
        assert [r.cached for r in results[:4]] == [True, False, True, False]

    def test_counters_consistent_under_threads(self, api_session):
        sqls = shuffled_requests(api_session.workload, unique=4, copies=3)
        service = api_session.service(max_batch_size=3)
        with service.start():
            run_concurrent_clients(service, sqls)
        stats = service.stats()
        assert stats["requests"] == len(sqls)
        assert stats["requests"] == stats["served"] + stats["failures"]
        assert stats["failures"] == 0
        # 4 unique queries: everything beyond the first resolution of each
        # signature must have been served from the memo or an in-flight
        # duplicate.  (Concurrent flushes may both miss the same signature,
        # so the hit count can dip below len - unique, but served is exact.)
        assert stats["cache_hits"] + stats["cache_misses"] == len(sqls)
        assert stats["cache_misses"] >= 4
