"""The remote engine subsystem: parity, robustness, lifecycle.

The contracts under test (see :mod:`repro.engine.remote`):

* plans are **bitwise-identical** across ``LocalBackend`` and
  ``RemoteBackend`` — including the batched ``*_many`` mirrors — because
  both backends rebuild the same dataset from the same
  :class:`WorkloadSpec` (here the server builds its *own*
  engine from the spec, so the wire genuinely separates client and
  server);
* a 2-tenant :class:`ServiceGroup` can share **one** ``RemoteBackend``
  and serve the same plans as local sessions;
* the connect-time fingerprint handshake refuses client/server datagen
  drift, and the session manifest records the remote fingerprint;
* the handshake refuses a server that speaks another wire protocol
  version;
* the wire's op table (:data:`repro.engine.wire.OPS`) is exactly what the
  client sends, in the shapes the server checks;
* a dead/restarted server costs a bounded reconnect, then a typed
  ``RemoteEngineError``; a client that disconnects mid-frame costs the
  server nothing but that one connection.

Every blocking call carries a timeout, and an autouse watchdog dumps all
stacks and kills the process if a test wedges — a hung socket must fail
fast, not hang tier-1.
"""

from __future__ import annotations

import faulthandler
import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.api import FossConfig, FossSession, RequestContext, ServiceGroup
from repro.core.aam import AAMConfig
from repro.core.icp import IncompletePlan
from repro.engine.backend import make_backend
from repro.engine.database import dataset_fingerprint
from repro.engine.remote import EngineServer, RemoteBackend, RemoteEngineError
from repro.engine.wire import (
    OPS,
    FrameTooLargeError,
    contexts_to_wire,
    encode_message,
    encode_request,
    plan_to_wire,
    planning_to_wire,
    query_to_wire,
    read_frame,
    write_frame,
)
from repro.optimizer.dp import OptimizerOptions
from repro.optimizer.plans import plan_signature
from repro.workloads.base import WorkloadSpec
from rpc_surface import op_table_gaps, record_ops, uncovered_methods

# Per-test deadlock guard: generous against 1-CPU CI, tiny against a hang.
WATCHDOG_S = 180.0
# Socket timeout for every client in this module; well under the watchdog.
CLIENT_TIMEOUT_S = 60.0


def _watchdog_fire() -> None:  # pragma: no cover - only on deadlock
    faulthandler.dump_traceback()
    os._exit(2)


@pytest.fixture(autouse=True)
def deadlock_watchdog():
    """Fail fast (with stacks) instead of hanging the suite on a hung socket."""
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
def server_db(job_workload):
    """The server-side engine: rebuilt from the spec, NOT the client's object."""
    return job_workload.spec.build_database()


@pytest.fixture(scope="module")
def engine_server(server_db):
    with EngineServer(server_db) as server:
        server.start()
        yield server


@pytest.fixture(scope="module")
def remote_backend(engine_server, job_workload):
    with RemoteBackend(
        engine_server.url, database=job_workload.database, timeout_s=CLIENT_TIMEOUT_S
    ) as backend:
        yield backend


# ----------------------------------------------------------------------
# parity: local == remote, singletons and batches
# ----------------------------------------------------------------------
class TestBackendParity:
    def test_plans_identical_local_and_remote(self, job_workload, remote_backend):
        local = job_workload.database
        queries = [w.query for w in job_workload.train[:6]]
        local_sigs = [plan_signature(p.plan) for p in local.plan_many(queries)]
        remote_sigs = [plan_signature(p.plan) for p in remote_backend.plan_many(queries)]
        assert remote_sigs == local_sigs

    def test_hinted_completion_parity_including_batches(
        self, job_workload, remote_backend
    ):
        local = job_workload.database
        query = next(w.query for w in job_workload.train if w.query.num_tables >= 3)
        icp = IncompletePlan.extract(local.plan(query).plan)
        edited = icp.override(1, "merge" if icp.methods[0] != "merge" else "nestloop")
        requests = [
            (query, icp.order, icp.methods),
            (query, edited.order, edited.methods),
            (query, icp.order, icp.methods),  # repeat: client memo hit
        ]
        remote = remote_backend.plan_with_hints_many(requests)
        singles = [local.plan_with_hints(*request) for request in requests]
        assert [plan_signature(r.plan) for r in remote] == [
            plan_signature(r.plan) for r in singles
        ]
        one = remote_backend.plan_with_hints(query, icp.order, icp.methods)
        assert plan_signature(one.plan) == plan_signature(singles[0].plan)

    def test_execution_parity_and_batches(self, job_workload, remote_backend):
        local = job_workload.database
        query = next(w.query for w in job_workload.train if w.query.num_tables >= 3)
        plan = local.plan(query).plan
        assert (
            remote_backend.execute(query, plan).latency_ms
            == local.execute(query, plan).latency_ms
        )
        batch = [(query, plan, None), (query, plan, 10_000.0)]
        remote_results = remote_backend.execute_many(batch)
        local_results = local.execute_many(batch)
        assert [r.latency_ms for r in remote_results] == [
            r.latency_ms for r in local_results
        ]
        assert remote_backend.original_latency(query) == local.original_latency(query)

    def test_executions_and_stats_surface(self, job_workload, remote_backend):
        stats = remote_backend.stats()
        assert stats["backend"] == "remote"
        assert stats["url"] == remote_backend.url
        assert stats["server_backend"] == "local"
        query = job_workload.train[1].query
        plan = job_workload.database.plan(query).plan
        before = remote_backend.executions
        remote_backend.execute(query, plan)
        after_miss = remote_backend.executions
        assert after_miss >= before + 1, "server cache miss must count"
        remote_backend.execute(query, plan)
        assert remote_backend.executions == after_miss, "server cache hit must not count"

    def test_server_error_is_typed_and_does_not_poison_connection(
        self, job_workload, remote_backend
    ):
        with pytest.raises(RemoteEngineError, match="unknown engine RPC"):
            remote_backend._call("bogus_rpc", None)
        assert remote_backend.ping()  # same pool still serves


class TestDefaultOptionsPlanOnce:
    """``plan(q)`` and ``plan(q, OptimizerOptions())`` are one cache entry on
    every backend: the optimizer plans ``None`` as the defaults, so Bao's
    all-methods arm must not run the expert DP a second time."""

    @pytest.mark.parametrize("kind", ["local", "remote"])
    def test_default_options_share_the_unoptioned_entry(self, job_workload, request, kind):
        local = job_workload.database
        # A name no other test plans, so this backend has not cached it yet.
        query = local.sql(job_workload.train[2].sql, name=f"default_options_{kind}")
        if kind == "local":
            backend, cache = local, "plan_cache"
        else:
            backend, cache = request.getfixturevalue("remote_backend"), "plan_memo"
        before = backend.stats()[cache]
        first = backend.plan(query)
        assert backend.plan(query, OptimizerOptions()) is first
        assert backend.plan_many([query], OptimizerOptions())[0] is first
        assert backend.stats()[cache] == before + 1
        # Options that differ from the defaults still plan separately.
        hashless = backend.plan(query, OptimizerOptions(disabled_methods=frozenset({"hash"})))
        assert hashless is not first
        assert backend.stats()[cache] == before + 2


# ----------------------------------------------------------------------
# the api layer over a remote engine
# ----------------------------------------------------------------------
class TestRemoteServing:
    def test_engine_url_selects_remote_backend(self, engine_server, job_workload):
        config = tiny_config(engine_url=engine_server.url)
        with FossSession.open(workload=job_workload, config=config) as session:
            assert isinstance(session.backend, RemoteBackend)
            sql = job_workload.train[0].sql
            remote_plan = plan_signature(session.service().optimize_sql(sql).plan)
        with FossSession.open(workload=job_workload, config=tiny_config()) as local:
            local_plan = plan_signature(local.service().optimize_sql(sql).plan)
        assert remote_plan == local_plan

    def test_two_tenant_group_over_one_shared_remote(
        self, job_workload, remote_backend
    ):
        sqls = [wq.sql for wq in job_workload.train[:3]]
        with FossSession.open(workload=job_workload, config=tiny_config()) as local:
            expected = [
                plan_signature(local.service().optimize_sql(sql).plan) for sql in sqls
            ]
        with ServiceGroup.open(
            workload=job_workload,
            tenants=("alpha", "beta"),
            config=tiny_config(),
            backend=remote_backend,
        ) as group:
            assert group.backend is remote_backend
            for tenant in group.tenants:
                served = [
                    plan_signature(group.optimize_sql(tenant, sql).plan)
                    for sql in sqls
                ]
                assert served == expected, f"tenant {tenant!r} diverged"
            assert group.stats()["backend"]["backend"] == "remote"
        # The group must not close the injected shared backend.
        assert remote_backend.ping()

    def test_manifest_records_remote_fingerprint(
        self, job_workload, remote_backend, tmp_path
    ):
        path = str(tmp_path / "remote-doctor")
        session = FossSession.open(
            workload=job_workload, config=tiny_config(), backend=remote_backend
        )
        session.save(path)
        with open(os.path.join(path, "session.json")) as handle:
            manifest = json.load(handle)
        assert manifest["remote"]["engine_url"] == remote_backend.url
        assert (
            manifest["remote"]["dataset_fingerprint"]
            == remote_backend.remote_fingerprint
            == manifest["dataset_fingerprint"]
        )
        restored = FossSession.load(path, backend=remote_backend)
        sql = job_workload.train[0].sql
        assert plan_signature(
            restored.service().optimize_sql(sql).plan
        ) == plan_signature(session.service().optimize_sql(sql).plan)

    def test_load_rejects_drifted_remote_server(
        self, job_workload, remote_backend, tmp_path
    ):
        """A server whose datagen drifted after the save, with a client
        mirror that drifted with it: the handshake passes (server and
        mirror agree), and ``load`` refuses the mirror for the manifest."""
        path = str(tmp_path / "remote-doctor-drift")
        session = FossSession.open(
            workload=job_workload, config=tiny_config(), backend=remote_backend
        )
        session.save(path)
        spec = job_workload.spec
        drifted_db = WorkloadSpec(spec.name, scale=spec.scale, seed=spec.seed + 1).build_database()
        with EngineServer(drifted_db) as server:
            server.start()
            with RemoteBackend(
                server.url, database=drifted_db, timeout_s=CLIENT_TIMEOUT_S
            ) as drifted:
                assert drifted.remote_fingerprint != remote_backend.remote_fingerprint
                with pytest.raises(ValueError, match="fingerprint mismatch"):
                    FossSession.load(path, backend=drifted)


# ----------------------------------------------------------------------
# the op table is the RPC surface
# ----------------------------------------------------------------------
class TestOpTable:
    """Every op the client sends is in :data:`~repro.engine.wire.OPS`, in
    the shape the server checks, and every op in the table is sent by some
    client call: no op is client-only or server-only."""

    def test_client_emits_exactly_the_op_table(self, engine_server, job_workload, monkeypatch):
        assert uncovered_methods() == set(), "every backend method needs an entry in CALLS"
        sent, failures = record_ops(engine_server.url, job_workload, monkeypatch)
        assert failures == []
        assert op_table_gaps(sent) == []
        assert {kind for kind, _body in sent} == set(OPS)


# ----------------------------------------------------------------------
# robustness: handshake, reconnect, corrupt clients, limits
# ----------------------------------------------------------------------
class TestRemoteRobustness:
    def test_handshake_refuses_fingerprint_mismatch(self, server_db, job_workload):
        with EngineServer(server_db) as server:
            server.start()
            server._fingerprint = "crc32:deadbeef:rows=0"  # simulated drift
            with pytest.raises(RemoteEngineError, match="fingerprint mismatch"):
                RemoteBackend(
                    server.url,
                    database=job_workload.database,
                    timeout_s=CLIENT_TIMEOUT_S,
                )

    def test_handshake_refuses_another_protocol_version(self, job_workload):
        """A server that advertises protocol 2 — replying the way a v2
        server did — is refused at connect: one connection, no reconnect
        attempt, and the client's socket is closed, not leaked."""
        hello = {
            "protocol": 2,
            "dataset_fingerprint": dataset_fingerprint(job_workload.database.dataset),
        }
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(CLIENT_TIMEOUT_S)
        seen = {"connections": 0, "closed": False}

        def stub_v2_server():
            try:
                sock, _addr = listener.accept()
            except OSError:
                return
            seen["connections"] += 1
            sock.settimeout(CLIENT_TIMEOUT_S)
            with sock, sock.makefile("rwb") as stream:
                while read_frame(stream) is not None:
                    write_frame(stream, encode_message(("ok", (hello, 0))))
                seen["closed"] = True  # EOF: the client closed its socket
            listener.settimeout(1.0)  # a reconnect would arrive well within this
            try:
                extra, _addr = listener.accept()
            except OSError:
                return
            extra.close()
            seen["connections"] += 1

        stub = threading.Thread(target=stub_v2_server, daemon=True)
        stub.start()
        try:
            with pytest.raises(RemoteEngineError, match="protocol 2"):
                RemoteBackend(
                    f"tcp://127.0.0.1:{listener.getsockname()[1]}",
                    database=job_workload.database,
                    timeout_s=CLIENT_TIMEOUT_S,
                    max_reconnects=3,
                    reconnect_backoff_s=0.01,
                )
            stub.join(timeout=30.0)
            assert not stub.is_alive()
        finally:
            listener.close()
        assert seen == {"connections": 1, "closed": True}

    def test_bogus_kinds_share_one_metric_series(self, engine_server):
        """Unknown ops from a peer are counted under one ``unknown`` series,
        so a peer cannot grow the metric set."""
        handled = set(OPS)
        for i in range(200):
            payload = encode_request(f"bogus-{i}", None, None)
            status, message = engine_server._dispatch(payload)
            assert status == "err" and "unknown engine RPC" in message
        counter = obs.get_registry().get("engine_requests_total")
        kinds = {labels["kind"] for labels, _child in counter.series()}
        assert "unknown" in kinds
        assert kinds <= handled | {"unknown"}
        assert len(kinds) <= len(handled) + 1

    def test_a_protocol_4_execute_is_an_unknown_op(self, engine_server, job_workload):
        """Protocol 5 dropped the single ``execute`` op; a v4 client's
        request is refused as unknown, and no plan runs."""
        query = job_workload.train[0].query
        plan = job_workload.database.plan(query).plan
        before = engine_server.backend.executions
        body = [query_to_wire(query), plan_to_wire(plan), None, False]
        status, message = engine_server._dispatch(encode_request("execute", body, None))
        assert status == "err" and "unknown engine RPC 'execute'" in message
        assert engine_server.backend.executions == before

    def test_bounded_reconnect_across_server_restart(self, server_db, job_workload):
        first = EngineServer(server_db)
        first.start()
        port = first.port
        client = RemoteBackend(
            first.url,
            database=job_workload.database,
            pool_size=1,
            timeout_s=CLIENT_TIMEOUT_S,
            max_reconnects=3,
            reconnect_backoff_s=0.01,
        )
        try:
            assert client.ping()
            first.close()
            # Same address, fresh server process-equivalent: the client's
            # pooled connection is dead and must transparently reconnect.
            second = EngineServer(server_db, port=port)
            second.start()
            try:
                assert client.ping(), "client must reconnect to a restarted server"
            finally:
                second.close()
            # No server at all: connection refused is non-transient, so the
            # client fails fast instead of burning the reconnect budget.
            with pytest.raises(RemoteEngineError, match="connection refused"):
                client.ping()
        finally:
            client.close()
            first.close()

    def test_reconnect_reverifies_fingerprint(self, server_db, job_workload):
        # The drift check must hold through transparent reconnects, not
        # just at construction: a restart is exactly when datagen can change.
        first = EngineServer(server_db)
        first.start()
        port = first.port
        client = RemoteBackend(
            first.url,
            database=job_workload.database,
            pool_size=1,
            timeout_s=CLIENT_TIMEOUT_S,
            max_reconnects=3,
            reconnect_backoff_s=0.01,
        )
        try:
            assert client.ping()
            first.close()
            second = EngineServer(server_db, port=port)
            second._fingerprint = "crc32:deadbeef:rows=0"  # simulated drift
            second.start()
            try:
                with pytest.raises(RemoteEngineError, match="drift"):
                    client.ping()
            finally:
                second.close()
        finally:
            client.close()
            first.close()

    def test_oversized_response_reported_not_dropped(self, server_db, job_workload):
        queries = [w.query for w in job_workload.train[:8]]
        request_size = len(
            encode_request("plan_many", ([query_to_wire(q) for q in queries], None), None)
        )
        # Measure the exact response the capped server will produce.
        results = server_db.plan_many(queries)
        response_size = len(
            encode_message(
                ("ok", ([planning_to_wire(r) for r in results], server_db.executions, ()))
            )
        )
        if response_size <= request_size + 64:
            pytest.skip("plan trees not larger than queries at this scale")
        # The request (and the fingerprint handshake) fit; the response can't.
        cap = request_size + 32
        with EngineServer(server_db, max_frame_bytes=cap) as server:
            server.start()
            client = RemoteBackend(
                server.url, database=job_workload.database, timeout_s=CLIENT_TIMEOUT_S
            )
            try:
                with pytest.raises(RemoteEngineError, match="response frame too large"):
                    client.plan_many(queries)
                # An error frame, not a dropped socket: the connection (and
                # the already-computed work) survives for smaller batches.
                assert client.ping()
                assert plan_signature(
                    client.plan(queries[0]).plan
                ) == plan_signature(results[0].plan)
            finally:
                client.close()

    def test_client_disconnect_mid_frame_leaves_server_healthy(
        self, engine_server, remote_backend
    ):
        # A client that dies mid-header: the server must drop only that
        # connection, never wedge the shared backend.
        for garbage in (b"\x00\x01", b"GARBAGEGARBAGE!!"):
            raw = socket.create_connection(
                (engine_server.host, engine_server.port), timeout=10.0
            )
            raw.sendall(garbage)
            raw.close()
        assert remote_backend.ping(), "server must keep serving other clients"

    def test_oversized_request_rejected_client_side(self, engine_server, job_workload):
        client = RemoteBackend(
            engine_server.url,
            database=job_workload.database,
            timeout_s=CLIENT_TIMEOUT_S,
            max_frame_bytes=128,  # far below any real batch request
        )
        try:
            queries = [w.query for w in job_workload.train[:2]]
            with pytest.raises(FrameTooLargeError):
                client.plan_many(queries)
        finally:
            client.close()

    def test_calls_after_close_raise(self, engine_server, job_workload):
        client = RemoteBackend(
            engine_server.url, database=job_workload.database, timeout_s=CLIENT_TIMEOUT_S
        )
        client.close()
        client.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            client.ping()

    def test_make_backend_url_validation(self, job_workload):
        with pytest.raises(ValueError, match="tcp://"):
            make_backend(job_workload, engine_url="http://localhost:80")
        with pytest.raises(ValueError, match="engine_url"):
            FossConfig(engine_url="localhost:7733")


# ----------------------------------------------------------------------
# cross-wire span propagation (repro.obs)
# ----------------------------------------------------------------------
@pytest.fixture()
def obs_tracing():
    """Tracing on for the test; tracer and enabled-state restored after."""
    previous = obs.set_enabled(True)
    try:
        yield obs.get_tracer()
    finally:
        obs.get_tracer().clear()
        obs.set_enabled(previous)


class TestWireTracing:
    def test_untraced_wire_dicts_ignore_obs_state(self, job_workload):
        """Untraced context encoding is bitwise-independent of the obs gate."""
        ctx = RequestContext.mint(tenant="t", deadline_s=30.0)
        enabled_bytes = encode_message(contexts_to_wire([ctx], now=ctx.submitted_at))
        previous = obs.set_enabled(False)
        try:
            disabled_bytes = encode_message(contexts_to_wire([ctx], now=ctx.submitted_at))
        finally:
            obs.set_enabled(previous)
        assert enabled_bytes == disabled_bytes
        assert "trace" not in ctx.to_wire() and "span" not in ctx.to_wire()

    def test_untraced_dispatch_reply_is_two_slot(
        self, engine_server, job_workload, obs_tracing
    ):
        query = job_workload.train[30].query
        ctx = RequestContext.mint(tenant="t", deadline_s=60.0)
        payload = encode_request(
            "plan_many", ([query_to_wire(query)], None), contexts_to_wire([ctx])
        )
        status, body = engine_server._dispatch(payload)
        assert status == "ok"
        result, _executions, spans = body
        assert result[0] is not None
        assert not spans, "an untraced request gets an empty spans slot"

    def test_traced_dispatch_reply_piggybacks_spans(
        self, engine_server, job_workload, obs_tracing
    ):
        query = job_workload.train[31].query
        ctx = RequestContext.mint(tenant="t", traced=True)
        assert ctx.trace_id is not None
        payload = encode_request(
            "plan_many", ([query_to_wire(query)], None), contexts_to_wire([ctx])
        )
        status, body = engine_server._dispatch(payload)
        assert status == "ok" and len(body) == 3
        spans = body[2]
        names = {s["name"] for s in spans}
        assert {"server.dispatch", "engine.batch"} <= names
        by_name = {s["name"]: s for s in spans}
        assert by_name["engine.batch"]["parent_id"] == by_name["server.dispatch"]["span_id"]
        assert all(s["trace_id"] == ctx.trace_id for s in spans)
        # drained: the server keeps nothing for this trace after replying
        assert obs_tracing.spans(ctx.trace_id) == []

    def test_traced_remote_call_joins_server_spans(
        self, remote_backend, job_workload, obs_tracing
    ):
        ctx = RequestContext.mint(tenant="t", traced=True)
        queries = [w.query for w in job_workload.train[32:34]]
        results = remote_backend.plan_many(queries, ctxs=[ctx, ctx])
        assert all(r is not None for r in results)
        spans = obs_tracing.spans(ctx.trace_id)
        names = {s.name for s in spans}
        assert {"remote.call", "server.dispatch", "engine.batch"} <= names
        call = next(s for s in spans if s.name == "remote.call")
        dispatch = next(s for s in spans if s.name == "server.dispatch")
        batch = next(s for s in spans if s.name == "engine.batch")
        assert dispatch.parent_id == call.span_id
        assert batch.parent_id == dispatch.span_id
        tree = obs_tracing.tree(ctx.trace_id)
        assert len(tree) == 1, "one joined tree, rooted at the client call"
        assert tree[0]["name"] == "remote.call"

    def test_disabled_tracing_keeps_remote_plans_bitwise_identical(
        self, remote_backend, job_workload
    ):
        previous = obs.set_enabled(False)
        try:
            ctx = RequestContext.mint(tenant="t", traced=True)
            assert ctx.trace_id is None
            queries = [w.query for w in job_workload.train[36:38]]
            with_ctx = remote_backend.plan_many(queries, ctxs=[ctx, ctx])
            plain = job_workload.database.plan_many(queries)
            assert [plan_signature(p.plan) for p in with_ctx] == [
                plan_signature(p.plan) for p in plain
            ]
            assert len(obs.get_tracer()) == 0 or not obs.get_tracer().spans(None)
        finally:
            obs.set_enabled(previous)


# ----------------------------------------------------------------------
# end-to-end: traced optimize against a real repro-engine subprocess
# ----------------------------------------------------------------------
class TestTracedServingSubprocess:
    def test_traced_submit_yields_one_joined_trace(self, job_workload, obs_tracing):
        """The PR's acceptance path: submit(traced=True) against a real
        ``repro-engine`` subprocess produces one joined span tree crossing
        the wire, exportable as JSON and Prometheus text."""
        boot = (
            "from repro.engine.remote.server import main; "
            "raise SystemExit(main(['job', '--scale', '0.03', '--seed', '1', "
            "'--port', '0', '--metrics']))"
        )
        env = dict(os.environ)
        env.pop("REPRO_OBS", None)  # default-on tracing server-side
        proc = subprocess.Popen(
            [sys.executable, "-c", boot],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        url = None
        session = None
        try:
            assert proc.stdout is not None
            for line in proc.stdout:  # the watchdog bounds a wedged startup
                if "listening on " in line:
                    url = line.split("listening on ", 1)[1].split()[0]
                    break
            assert url is not None, "server never printed its listening line"
            session = FossSession.open(
                workload=job_workload, config=tiny_config(engine_url=url)
            )
            service = session.service()
            ticket = service.submit(job_workload.train[40].sql, traced=True)
            trace_id = ticket.context.trace_id
            assert trace_id is not None
            result = service.wait(ticket, timeout=WATCHDOG_S / 2)
            assert result.status == "done"

            tracer = obs.get_tracer()
            spans = tracer.spans(trace_id)
            names = {s.name for s in spans}
            assert len(spans) >= 4, names
            assert "service.request" in names
            assert "remote.call" in names
            assert "server.dispatch" in names, "server-side spans must cross the wire"
            tree = tracer.tree(trace_id)
            assert len(tree) == 1, "all spans join into a single tree"
            assert tree[0]["name"] == "service.request"

            # Both exporters can render the joined trace / live registry.
            facade = session.observability()
            snap = json.loads(facade.json())
            assert any(s["trace_id"] == trace_id for s in snap.get("spans", []))
            prom = facade.prometheus()
            assert "serving_latency_ms" in prom

            # The subprocess serves Prometheus text on its own listener.
            host, port = url[len("tcp://"):].rsplit(":", 1)
            scrape = socket.create_connection((host, int(port)), timeout=CLIENT_TIMEOUT_S)
            try:
                scrape.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
                raw = b""
                while True:
                    chunk = scrape.recv(65536)
                    if not chunk:
                        break
                    raw += chunk
            finally:
                scrape.close()
            assert raw.startswith(b"HTTP/1.0 200")
            assert b"engine_requests_total" in raw
        finally:
            if session is not None:
                session.close()
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
