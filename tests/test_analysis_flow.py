"""Seeded regressions of the flow invariants — lock order and resource
release — and the request-context contract that replaced a static rule.

The checks live in ``tests/test_invariants.py``.  Here:

* ``lock_order`` on the deadlocks it must find: nested ``with`` blocks,
  calls into same-module functions, constructors and inherited methods;
* ``resource_release`` on every path shape it follows (straight line,
  both arms of an ``if``, loops, handlers, ``finally``) and the leaks each
  can hide;
* a scratch copy of ``src/repro``: the walk re-parses only edited files,
  never caches a verdict, and reports a regression in a real module;
* request contexts, at run time: ``plan_many``, the one engine call that
  takes them, consults its ``ctxs`` before the work, environments forward
  them, and a context the service mints reaches the engine;
* the engine client's request bodies against the wire's op table.
"""

import ast
import inspect
import shutil
import time

import pytest

import test_invariants as inv
from repro.api import DeadlineExceededError, FossConfig, FossSession, RequestContext
from repro.core.aam import AAMConfig
from repro.engine.backend import EngineBackend
from repro.engine.database import Database
from repro.engine.remote import RemoteBackend, RemoteEngineError
from repro.engine.remote import client as client_module
from repro.engine.wire import OPS, check_body, decode_message, encode_message
from rpc_surface import op_table_gaps, record_ops
from test_invariants import (
    CHECKS,
    PACKAGE,
    REPO_ROOT,
    hits,
    layer_import,
    lock_blocking,
    lock_order,
    module_name,
    parse,
    resource_release,
    src_modules,
    violations,
)

CLIENT = "src/repro/engine/remote/client.py"


@pytest.fixture
def tree(tmp_path):
    """A scratch copy of ``src/repro`` to seed regressions into real modules."""
    shutil.copytree(PACKAGE, tmp_path / "src" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


# ----------------------------------------------------------------------
# lock order
# ----------------------------------------------------------------------
class TestLockOrder:
    def test_two_lock_cycle_detected(self):
        # The seeded deadlock: two locks taken in opposite orders.
        assert hits(lock_order, """
            import threading

            lock_a = threading.Lock()
            lock_b = threading.Lock()

            def forward():
                with lock_a:
                    with lock_b:
                        pass

            def backward():
                with lock_b:
                    with lock_a:
                        pass
            """) == 2

    def test_cycle_through_call_graph_detected(self):
        assert hits(lock_order, """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._stats_lock = threading.Lock()

                def update(self):
                    with self._lock:
                        self._bump()

                def _bump(self):
                    with self._stats_lock:
                        pass

                def report(self):
                    with self._stats_lock:
                        with self._lock:
                            pass
            """) == 2

    def test_consistent_order_is_clean(self):
        assert hits(lock_order, """
            import threading

            lock_a = threading.Lock()
            lock_b = threading.Lock()

            def one():
                with lock_a:
                    with lock_b:
                        pass

            def two():
                with lock_a:
                    with lock_b:
                        pass
            """) == 0

    def test_bounded_acquire_is_exempt(self):
        assert hits(lock_order, """
            import threading

            lock_a = threading.Lock()
            lock_b = threading.Lock()

            def one():
                with lock_a:
                    acquired = lock_b.acquire(timeout=1.0)

            def two():
                with lock_b:
                    with lock_a:
                        pass
            """) == 0


class TestCallGraph:
    def test_class_constructor_resolves_to_init(self):
        assert hits(lock_order, """
            import threading

            lock_a = threading.Lock()
            lock_b = threading.Lock()

            class Pool:
                def __init__(self):
                    with lock_b:
                        self.size = 0

            def build():
                with lock_a:
                    return Pool()

            def drain():
                with lock_b:
                    with lock_a:
                        pass
            """) == 2

    def test_module_name(self):
        assert module_name("src/repro/engine/remote/client.py") == "repro.engine.remote.client"
        assert module_name("src/repro/engine/__init__.py") == "repro.engine"
        # Relative imports resolve from the module's package.
        assert hits(layer_import, "from ...api import service\n",
                    "src/repro/engine/remote/_fixture.py") == 1
        assert hits(layer_import, "from ..api import service\n",
                    "src/repro/engine/__init__.py") == 1
        assert hits(layer_import, "from ..wire import OPS\nfrom .remote import client\n",
                    "src/repro/engine/remote/_fixture.py") == 0

    def test_self_and_inherited_method_resolution(self):
        assert hits(lock_order, """
            import threading

            registry_lock = threading.Lock()

            class Base:
                def _register(self):
                    with registry_lock:
                        pass

            class Service(Base):
                def update(self):
                    with self._lock:
                        self._register()

                def report(self):
                    with registry_lock:
                        with self._lock:
                            pass
            """) == 2

    def test_unknown_callsite_is_marked(self):
        """A call into another module or another object is not guessed at:
        it adds no edge (the known limit: one module at a time)."""
        assert hits(lock_order, """
            import threading

            from elsewhere import refresh

            class Service:
                def update(self):
                    with self._lock:
                        refresh()
                        self._peer.refresh()

                def report(self):
                    with self._peer._lock:
                        with self._lock:
                            pass
            """) == 0


class TestDataflow:
    def test_backward_reaches_entry(self):
        """A lock taken two calls down counts as taken by the caller."""
        assert hits(lock_order, """
            import threading

            lock_a = threading.Lock()
            lock_b = threading.Lock()

            def entry():
                with lock_a:
                    middle()

            def middle():
                leaf()

            def leaf():
                with lock_b:
                    pass

            def other():
                with lock_b:
                    with lock_a:
                        pass
            """) == 2

    def test_forward_all_paths_meet(self):
        """Every arm must hand the resource off, not just one."""
        assert hits(resource_release, """
            import socket

            class Conn:
                def ensure(self, host, primary):
                    sock = socket.create_connection((host, 1))
                    if primary:
                        self._sock = sock
            """) == 1

    def test_forward_branch_kind_override(self):
        """A branch test that can raise is a path out, before either arm."""
        assert hits(resource_release, """
            import socket

            class Conn:
                def ensure(self, host):
                    sock = socket.create_connection((host, 1))
                    if self._check(sock):
                        self._sock = sock
                    else:
                        self._spare = sock
            """) == 1


# ----------------------------------------------------------------------
# resource release
# ----------------------------------------------------------------------
class TestResourceRelease:
    def test_leak_on_exception_flagged(self):
        # settimeout/makefile raising leaks the socket.
        assert hits(resource_release, """
            import socket

            class Conn:
                def ensure(self):
                    sock = socket.create_connection(("h", 1), timeout=1.0)
                    sock.settimeout(1.0)
                    self._sock = sock
                    self._stream = sock.makefile("rwb")
            """) == 1

    def test_guarded_by_try_passes(self):
        assert hits(resource_release, """
            import socket

            class Conn:
                def ensure(self):
                    sock = socket.create_connection(("h", 1), timeout=1.0)
                    try:
                        sock.settimeout(1.0)
                        stream = sock.makefile("rwb")
                    except BaseException:
                        sock.close()
                        raise
                    self._sock = sock
                    self._stream = stream
            """) == 0

    def test_return_path_leak_flagged(self):
        assert hits(resource_release, """
            import socket

            def probe(host):
                sock = socket.create_connection((host, 1))
                if not sock:
                    return None
                return True
            """) == 1

    def test_finally_with_none_guard_passes(self):
        assert hits(resource_release, """
            def serve(sock):
                stream = None
                try:
                    stream = sock.makefile("rwb")
                    pump(stream)
                finally:
                    if stream is not None:
                        stream.close()
            """) == 0

    def test_spawn_loop_without_cleanup_flagged(self):
        # Process()/start() raising leaks the parent end of the pipe.
        assert hits(resource_release, """
            import multiprocessing

            class Pool:
                def spawn(self, ctx, spec):
                    parent_conn, child_conn = ctx.Pipe()
                    proc = ctx.Process(target=run, args=(child_conn, spec))
                    proc.start()
                    child_conn.close()
                    self._conns.append(parent_conn)
            """) == 1

    def test_guarded_spawn_with_ownership_transfer_passes(self):
        assert hits(resource_release, """
            import multiprocessing

            class Pool:
                def spawn(self, ctx, spec):
                    parent_conn, child_conn = ctx.Pipe()
                    try:
                        proc = ctx.Process(target=run, args=(child_conn, spec))
                        proc.start()
                    except BaseException:
                        parent_conn.close()
                        child_conn.close()
                        raise
                    child_conn.close()
                    self._conns.append(parent_conn)
            """) == 0

    def test_connection_lock_release_through_chain_passes(self):
        assert hits(resource_release, """
            class Client:
                def call(self, request):
                    conn = self._acquire()
                    try:
                        return conn.round_trip(request)
                    finally:
                        conn.lock.release()
            """) == 0

    def test_acquired_lock_leak_flagged(self):
        assert hits(resource_release, """
            class Client:
                def call(self, request):
                    conn = self._acquire()
                    return conn.round_trip(request)
            """) == 1

    def test_tokenizer_accept_not_a_socket(self):
        # The SQL parser's self.accept() is not a socket accept.
        assert hits(resource_release, """
            class Parser:
                def parse(self):
                    token = self.accept("ident")
                    return token
            """) == 0


class TestCfg:
    def test_linear_function_chains_to_exit(self):
        assert hits(resource_release, """
            import socket

            class Conn:
                def ensure(self, host):
                    sock = socket.create_connection((host, 1))
                    label = "engine"
                    self._sock = sock
            """) == 0

    def test_call_statement_gets_exception_edge_to_raise_exit(self):
        assert hits(resource_release, """
            import socket

            class Conn:
                def ensure(self, host):
                    sock = socket.create_connection((host, 1))
                    log("connected")
                    self._sock = sock
            """) == 1

    def test_if_else_has_true_false_edges_and_join(self):
        assert hits(resource_release, """
            import socket

            class Conn:
                def ensure(self, host, primary):
                    sock = socket.create_connection((host, 1))
                    if primary:
                        self._primary = sock
                    else:
                        self._backup = sock
            """) == 0
        # Both arms fall through to the join, which hands the socket off.
        assert hits(resource_release, """
            import socket

            class Conn:
                def ensure(self, host, primary):
                    sock = socket.create_connection((host, 1))
                    if primary:
                        self._role = "primary"
                    else:
                        self._role = "backup"
                    self._sock = sock
            """) == 0

    def test_while_loop_back_edge_and_break(self):
        """A loop between acquiring and handing off has more paths than the
        walk follows, so it counts as one that can raise."""
        assert hits(resource_release, """
            import socket

            class Conn:
                def ensure(self, host):
                    sock = socket.create_connection((host, 1))
                    while not self._ready:
                        self._ready = True
                    self._sock = sock
            """) == 1

    def test_while_true_without_break_never_falls_through(self):
        """An accept loop must give each connection an owner in the same
        iteration; passing it to a plain call does not."""
        assert hits(resource_release, """
            class Server:
                def serve(self):
                    while True:
                        conn, _addr = self._listener.accept()
                        self._clients.append(conn)
            """) == 0
        assert hits(resource_release, """
            class Server:
                def serve(self):
                    while True:
                        conn, _addr = self._listener.accept()
                        self._handle(conn)
            """) == 1

    def test_except_handler_receives_exception_edge(self):
        assert hits(resource_release, """
            import socket

            class Conn:
                def ensure(self, host):
                    sock = socket.create_connection((host, 1))
                    try:
                        self._stream = sock.makefile("rwb")
                    except OSError:
                        sock.close()
                        raise
                    self._sock = sock
            """) == 0

    def test_catchall_handler_stops_propagation(self):
        """A handler that swallows the error and returns leaks what it
        does not close."""
        assert hits(resource_release, """
            import socket

            class Conn:
                def ensure(self, host):
                    sock = socket.create_connection((host, 1))
                    try:
                        sock.settimeout(1.0)
                    except BaseException:
                        return None
                    self._sock = sock
            """) == 1

    def test_finally_runs_on_exception_path_and_return_path(self):
        assert hits(resource_release, """
            import socket

            def probe(host):
                try:
                    sock = socket.create_connection((host, 1))
                    if sock.fileno() < 0:
                        return False
                    return ping(sock)
                finally:
                    sock.close()
            """) == 0


# ----------------------------------------------------------------------
# the real tree
# ----------------------------------------------------------------------
class TestRealTreeFlow:
    def test_real_pool_locks_have_no_cycle(self):
        """Every pooled connection's lock is one lock to the order check,
        and the client's locks form no cycle."""
        def name(text):
            return inv._lock_name(ast.parse(text, mode="eval").body, "RemoteBackend")

        assert name("self._pool[i].lock") == name("self._pool[j + 1].lock") \
            == "RemoteBackend._pool.lock"
        [client] = [module for module in src_modules() if module.path == CLIENT]
        assert lock_order(client) == []

    def test_real_tree_clean_under_flow_rules(self):
        for check in (lock_blocking, lock_order, resource_release):
            assert violations(check) == [], check.__name__


class TestIncrementalCli:
    def test_cache_round_trip_and_invalidation(self, tree):
        """A copy of the tree re-parses only the file it edited."""
        rel = "src/repro/optimizer/dp.py"
        path = tree / rel
        path.write_text(path.read_text(encoding="utf-8") + "\nEDITED = True\n", encoding="utf-8")
        real = {module.path: module for module in src_modules()}
        copy = {module.path: module for module in src_modules(tree)}
        assert real.keys() == copy.keys()
        assert [p for p in real if real[p] is not copy[p]] == [rel]

    def test_cache_salt_invalidates_on_config_change(self, monkeypatch):
        """Parses are cached, verdicts are not: an allowlist change holds at
        once."""
        assert violations(lock_blocking) == []
        monkeypatch.setattr(inv, "LOCK_BLOCKING_ALLOW", {})
        found = violations(lock_blocking)
        assert found and all(item.startswith(f"{CLIENT}:") for item in found)

    def test_changed_files_in_a_real_checkout(self, tree):
        """The connection setup's handler forgetting to close its socket is
        reported in the client, and only there."""
        path = tree / CLIENT
        original = path.read_text(encoding="utf-8")
        guarded = "        except BaseException:\n            sock.close()\n            raise\n"
        assert original.count(guarded) == 1
        path.write_text(
            original.replace(guarded, "        except BaseException:\n            raise\n"),
            encoding="utf-8",
        )
        found = violations(resource_release, tree)
        assert len(found) == 1 and found[0].startswith(f"{CLIENT}:")

    def test_changed_files_outside_git_degrades(self, tree):
        """A file no version control knows about is walked like any other."""
        new = tree / "src/repro/engine/_scratch.py"
        new.write_text("from repro.api import service\n", encoding="utf-8")
        assert not (tree / ".git").exists()
        assert violations(layer_import, tree) == ["src/repro/engine/_scratch.py:1"]

    def test_restrict_limits_file_rules(self):
        """Each seeded regression trips its own check and no other."""
        seeded = {
            inv.det_hash: "def _f(key):\n    return hash(key)\n",
            inv.det_unseeded_random: "import random\nX = random.random()\n",
            inv.det_set_order: "Y = [k for k in {1, 2}]\n",
            inv.clock_wall: "import time\nZ = time.time()\n",
            inv.clock_monotonic: "import time\nZ = time.monotonic()\n",
            inv.clock_perf_counter: "import time\nZ = time.perf_counter()\n",
            inv.layer_import: "from repro.api import service\nS = service\n",
            inv.unused_import: "import math\n",
            inv.one_forward: "def backward(grad):\n    return grad\n",
        }
        rel = "src/repro/optimizer/dp.py"
        original = (REPO_ROOT / rel).read_text(encoding="utf-8")
        assert [check.__name__ for check in CHECKS if check(parse(rel, original))] == []
        for check, snippet in seeded.items():
            module = parse(rel, original + "\n" + snippet)
            tripped = [other.__name__ for other in CHECKS if other(module)]
            assert tripped == [check.__name__]


# ----------------------------------------------------------------------
# request contexts reach the work they bound
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def session(job_workload) -> FossSession:
    """An untrained (deterministically initialized) session over JOB."""
    return FossSession.open(workload=job_workload, config=FossConfig(
        max_steps=3, episodes_per_update=8, bootstrap_episodes=6, aam_retrain_threshold=40,
        random_sample_episodes=1, validation_budget=5, seed=33,
        aam=AAMConfig(d_model=32, d_embed=8, d_state=32, num_heads=2, num_layers=1,
                      ff_hidden=32, epochs=1),
    ))


def expired_ctx() -> RequestContext:
    return RequestContext.mint(tenant="t", deadline_s=0.0)


def live_ctx() -> RequestContext:
    return RequestContext.mint(tenant="t", deadline_s=600.0)


BATCH_METHODS = ("plan_many", "plan_with_hints_many", "execute_many")


class TestCtxPropagation:
    def test_protocol_stub_passes(self):
        """``plan_many`` is the one engine call that takes request contexts,
        in the protocol and in both backends alike."""
        for method in ("plan", "plan_with_hints", "execute", *BATCH_METHODS):
            shapes = [list(inspect.signature(getattr(cls, method)).parameters)
                      for cls in (EngineBackend, Database, RemoteBackend)]
            assert shapes[0] == shapes[1] == shapes[2], method
            takes = {"ctx", "ctxs"} & set(shapes[0])
            assert takes == ({"ctxs"} if method == "plan_many" else set()), method
        assert list(inspect.signature(EngineBackend.plan_many).parameters)[-1] == "ctxs"
        assert sorted(name for name in vars(EngineBackend) if name.endswith("_many")) \
            == sorted(BATCH_METHODS)

    def test_consulting_ctxs_first_passes(self, job_database):
        """An expired slot is answered before its request is even read."""
        assert job_database.plan_many([object()], ctxs=[expired_ctx()]) == [None]

    def test_dropped_ctxs_backend_flagged(self, job_database, job_workload, monkeypatch):
        """A budget that runs out during the batch drops the items after it."""
        queries = [wq.query for wq in job_workload.train[:2]]
        doomed = RequestContext.mint(tenant="t", deadline_s=0.3)
        plan, planned = job_database.plan, []

        def slow_plan(query, options=None, ctx=None):
            planned.append(query)
            while not doomed.expired():
                time.sleep(0.01)
            return plan(query, options)

        monkeypatch.setattr(job_database, "plan", slow_plan)
        results = job_database.plan_many(queries, ctxs=[None, doomed])
        assert results[0] is not None and results[1] is None
        assert planned == queries[:1]

    def test_environment_dropping_ctxs_flagged(self, session, job_workload):
        """The inference environment's batch planning keeps its contexts:
        an expired one surfaces as a deadline error."""
        environment = session.optimizer()._environment
        query = job_workload.train[0].query
        with pytest.raises(DeadlineExceededError):
            environment.begin_episode_many([query], ctxs=[expired_ctx()])

    def test_environment_forwarding_ctxs_passes(self, session, job_workload, monkeypatch):
        optimizer = session.optimizer()
        plan_many, seen = optimizer.database.plan_many, []

        def spy(queries, options=None, ctxs=None):
            seen.append(ctxs)
            return plan_many(queries, options, ctxs=ctxs)

        monkeypatch.setattr(optimizer.database, "plan_many", spy)
        ctxs = [live_ctx(), None]
        queries = [wq.query for wq in job_workload.train[:2]]
        assert len(optimizer._environment.begin_episode_many(queries, ctxs=ctxs)) == 2
        assert seen == [ctxs]

    def test_minted_context_used_passes(self, session, job_workload, monkeypatch):
        """The context ``optimize_sql`` mints from ``deadline_s`` carries the
        tenant and the budget to the engine's planning call."""
        service = session.service(tenant="ctx-tenant")
        database = session.optimizer().database
        plan_many, seen = database.plan_many, []

        def spy(queries, options=None, ctxs=None):
            seen.extend(ctx for ctx in ctxs or () if ctx is not None)
            return plan_many(queries, options, ctxs=ctxs)

        monkeypatch.setattr(database, "plan_many", spy)
        service.optimize_sql(job_workload.train[7].sql, deadline_s=600.0)
        assert seen and {(ctx.tenant, ctx.deadline_s) for ctx in seen} == {("ctx-tenant", 600.0)}

    def test_minted_context_dropped_flagged(self, session, job_workload, monkeypatch):
        """``execute_sql``'s minted budget caps the engine's timeout."""
        service = session.service()
        execute, timeouts = service.backend.execute, []

        def spy(query, plan, timeout_ms=None, ctx=None):
            timeouts.append(timeout_ms)
            return execute(query, plan, timeout_ms=timeout_ms)

        monkeypatch.setattr(service.backend, "execute", spy)
        service.execute_sql(job_workload.train[8].sql, deadline_s=600.0)
        assert len(timeouts) == 1 and 0.0 < timeouts[0] <= 600_000.0

    def test_raise_path_may_drop_context(self, session, job_workload, monkeypatch):
        """Refusing a spent budget abandons the request before any engine
        call."""
        service = session.service()
        calls = []
        for method in ("sql", "plan_many", "execute"):
            real = getattr(service.backend, method)
            monkeypatch.setattr(service.backend, method,
                                lambda *args, _real=real, **kwargs: calls.append(args) or
                                _real(*args, **kwargs))
        with pytest.raises(DeadlineExceededError):
            service.execute_sql(job_workload.train[9].sql, ctx=expired_ctx())
        assert calls == []
        assert service.stats()["expired"] == 1

    def test_mint_outside_api_not_held_to_contract(self):
        """Only ``repro.api`` mints contexts; the engine rebuilds the ones it
        is sent, so there is no context below the api that nothing reads."""
        minted = [
            module.path for module in src_modules() for node in ast.walk(module.tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "mint"
        ]
        assert minted and all(path.startswith("src/repro/api/") for path in minted)


# ----------------------------------------------------------------------
# request bodies against the op table
# ----------------------------------------------------------------------
_real_call = RemoteBackend._call


def _plan_many_grown_to_three(self, kind, payload, ctxs=None):
    if kind == "plan_many":
        payload = (*payload, None)
    return _real_call(self, kind, payload, ctxs)


def _handshake_renamed(self, conn):
    reply = conn.round_trip(client_module.encode_request("fingerprints", None, None))
    status, body = self._decode_reply(reply)
    if status != "ok":
        conn.drop()
        raise RemoteEngineError(body)


class TestRpcArity:
    def test_matched_shapes_pass(self, engine_url, job_workload, monkeypatch):
        sent, failures = record_ops(engine_url, job_workload, monkeypatch)
        assert failures == []
        for kind, body in sent:
            check_body(kind, decode_message(encode_message(body)))

    def test_tuple_arity_mismatch_flagged(self, engine_url, job_workload, monkeypatch):
        query = [job_workload.train[0].sql, "q"]
        with pytest.raises(ValueError, match="malformed plan_many"):
            check_body("plan_many", [[query], None, None])
        with pytest.raises(ValueError, match="malformed execute_many"):
            check_body("execute_many", [[query, None]])
        monkeypatch.setattr(RemoteBackend, "_call", _plan_many_grown_to_three)
        sent, failures = record_ops(engine_url, job_workload, monkeypatch)
        assert failures and all("malformed plan_many" in failure for failure in failures)
        gaps = op_table_gaps(sent)
        assert gaps and all(
            gap == "client sends 'plan_many': malformed plan_many request body" for gap in gaps
        )

    def test_none_payload_into_destructuring_branch_flagged(self):
        """Every op whose handler unpacks its body refuses a ``None`` body
        before the handler runs."""
        unpacking = [kind for kind, op in OPS.items() if not op.shape(None)]
        assert sorted(unpacking) == ["execute_many", "hint_many", "plan_many"]
        for kind in unpacking:
            with pytest.raises(ValueError, match=f"malformed {kind}"):
                check_body(kind, None)

    def test_raw_encoded_request_is_checked_too(self, engine_url, job_workload, monkeypatch):
        """The handshake builds its frame with the codec, not ``_call``."""
        monkeypatch.setattr(RemoteBackend, "_handshake", _handshake_renamed)
        sent, failures = record_ops(engine_url, job_workload, monkeypatch)
        assert [failure.split(":")[0] for failure in failures] == ["connect"]
        gaps = op_table_gaps(sent)
        assert gaps[0] == "client sends 'fingerprints': unknown engine RPC 'fingerprints'"
        assert "'fingerprint' is in the op table but no client call sends it" in gaps
