"""Tests for the flow-aware half of ``repro.analysis``.

Covers the foundations (CFG shape, dataflow fixpoints, call-graph
resolution) on synthetic functions, a failing + passing fixture pair for
every flow rule family (lock-order, ctx-propagation, resource-release),
the cases of the retired rpc-arity rule as seeded regressions of the
real engine client, the incremental CLI (``--since``, ``--cache``,
SARIF), and the meta-test that the real tree lints clean under the flow
rules.
"""

import ast
import json
import textwrap
from pathlib import Path

import pytest

import repro.analysis.rules  # noqa: F401  (registers the built-in rules)
from repro.analysis.cfg import build_cfg
from repro.analysis.callgraph import CallGraph, module_name
from repro.analysis.cli import changed_files, main, run_lint
from repro.analysis.config import LintConfig
from repro.analysis.core import Project
from repro.analysis.dataflow import solve_backward, solve_forward
from repro.analysis.registry import RULES, iter_rules
from repro.engine.remote import RemoteBackend, RemoteEngineError
from repro.engine.remote import client as client_module
from repro.engine.wire import OPS, check_body, decode_message, encode_message
from rpc_surface import op_table_gaps, record_ops

REPO_ROOT = Path(__file__).resolve().parents[1]

#: A root that exists nowhere on disk: project rules then see only the
#: in-memory fixture files added below, never the real tree.
FIXTURE_ROOT = Path("/nonexistent-analysis-fixtures")


def cfg_of(source):
    tree = ast.parse(textwrap.dedent(source))
    func = tree.body[0]
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    return build_cfg(func)


def fixture_project(files, config=None):
    project = Project(FIXTURE_ROOT, config or LintConfig())
    for relpath, source in files.items():
        sf = project.add(relpath, textwrap.dedent(source))
        assert sf is not None, f"fixture {relpath} must parse"
    return project


def lint_file(source, path="src/repro/optimizer/_fixture.py", rules=None, config=None):
    project = fixture_project({path: source}, config)
    sf = project.files[path]
    found = []
    for registered in iter_rules("file"):
        if rules is not None and registered.name not in rules:
            continue
        found.extend(registered.check(sf, project))
    return [f for f in found if not sf.suppressed(f)]


def rules_of(findings):
    return sorted(f.rule for f in findings)


# ----------------------------------------------------------------------
# CFG construction
# ----------------------------------------------------------------------
class TestCfg:
    def test_linear_function_chains_to_exit(self):
        cfg = cfg_of(
            """
            def f(x):
                y = x + 1
                return y
            """
        )
        assign = cfg.find_blocks(lambda s: isinstance(s, ast.Assign))[0]
        ret = cfg.find_blocks(lambda s: isinstance(s, ast.Return))[0]
        assert (assign.id, "next") in [(b, k) for b, k in cfg.entry.succs] or (
            assign.id,
            "next",
        ) in cfg.entry.succs
        assert (ret.id, "next") in assign.succs
        assert (cfg.exit.id, "return") in ret.succs

    def test_if_else_has_true_false_edges_and_join(self):
        cfg = cfg_of(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        branch = cfg.find_blocks(lambda s: isinstance(s, ast.If))[0]
        kinds = sorted(kind for _, kind in branch.succs)
        assert kinds == ["false", "true"]
        # Both assignment arms reach the same return block.
        ret = cfg.find_blocks(lambda s: isinstance(s, ast.Return))[0]
        reaching = {b.id for b in cfg.reachable()}
        assert ret.id in reaching

    def test_while_loop_back_edge_and_break(self):
        cfg = cfg_of(
            """
            def f(xs):
                while xs:
                    if done(xs):
                        break
                    step(xs)
                return xs
            """
        )
        header = cfg.find_blocks(lambda s: isinstance(s, ast.While))[0]
        assert any(kind == "loop" and dst == header.id for dst, kind in _all_edges(cfg))
        brk = cfg.find_blocks(lambda s: isinstance(s, ast.Break))[0]
        assert any(kind == "break" for _, kind in brk.succs)

    def test_while_true_without_break_never_falls_through(self):
        cfg = cfg_of(
            """
            def f():
                while True:
                    spin()
                return 1
            """
        )
        # The trailing return is unreachable: never built into the graph.
        assert cfg.find_blocks(lambda s: isinstance(s, ast.Return)) == []

    def test_call_statement_gets_exception_edge_to_raise_exit(self):
        cfg = cfg_of(
            """
            def f():
                work()
            """
        )
        call = cfg.find_blocks(lambda s: isinstance(s, ast.Expr))[0]
        assert (cfg.raise_exit.id, "except") in call.succs

    def test_except_handler_receives_exception_edge(self):
        cfg = cfg_of(
            """
            def f():
                try:
                    work()
                except ValueError:
                    recover()
            """
        )
        call = cfg.find_blocks(
            lambda s: isinstance(s, ast.Expr)
            and isinstance(s.value, ast.Call)
            and s.value.func.id == "work"
        )[0]
        handler = cfg.find_blocks(lambda s: isinstance(s, ast.ExceptHandler))[0]
        assert (handler.id, "except") in call.succs
        # ValueError is not a catch-all: the exception can also continue out.
        assert (cfg.raise_exit.id, "except") in call.succs

    def test_catchall_handler_stops_propagation(self):
        cfg = cfg_of(
            """
            def f():
                try:
                    work()
                except Exception:
                    pass
            """
        )
        call = cfg.find_blocks(
            lambda s: isinstance(s, ast.Expr) and isinstance(s.value, ast.Call)
        )[0]
        assert (cfg.raise_exit.id, "except") not in call.succs

    def test_finally_runs_on_exception_path_and_return_path(self):
        cfg = cfg_of(
            """
            def f():
                try:
                    work()
                    return 1
                finally:
                    cleanup()
            """
        )
        cleanup = cfg.find_blocks(
            lambda s: isinstance(s, ast.Expr)
            and isinstance(s.value, ast.Call)
            and s.value.func.id == "cleanup"
        )[0]
        reachable_from_cleanup = {b.id for b in cfg.reachable(cleanup)}
        assert cfg.exit.id in reachable_from_cleanup  # the routed return
        assert cfg.raise_exit.id in reachable_from_cleanup  # re-dispatch


def _all_edges(cfg):
    return [(dst, kind) for b in cfg.blocks for dst, kind in b.succs]


# ----------------------------------------------------------------------
# dataflow solver
# ----------------------------------------------------------------------
class TestDataflow:
    def test_forward_all_paths_meet(self):
        cfg = cfg_of(
            """
            def f(x):
                if x:
                    touch()
                return 1
            """
        )

        def transfer(block, fact):
            touched = fact or (
                isinstance(block.stmt, ast.Expr)
                and any(
                    isinstance(n, ast.Call) and getattr(n.func, "id", "") == "touch"
                    for n in ast.walk(block.stmt)
                )
            )
            return {"*": touched}

        facts = solve_forward(cfg, False, transfer, all)
        # touch() happens only on the true branch: not an all-paths fact.
        assert facts[cfg.exit.id] is False

    def test_forward_branch_kind_override(self):
        cfg = cfg_of(
            """
            def f(x):
                if x is None:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        branch = cfg.find_blocks(lambda s: isinstance(s, ast.If))[0]

        def transfer(block, fact):
            if block.id == branch.id:
                return {"*": fact, "true": "is-none", "false": "not-none"}
            return {"*": fact}

        facts = solve_forward(cfg, "top", transfer, lambda fs: "/".join(sorted(set(fs))))
        arms = cfg.find_blocks(lambda s: isinstance(s, ast.Assign))
        per_arm = sorted(facts[b.id] for b in arms)
        assert per_arm == ["is-none", "not-none"]

    def test_backward_reaches_entry(self):
        cfg = cfg_of(
            """
            def f():
                a = 1
                return a
            """
        )
        facts = solve_backward(cfg, 0, lambda block, fact: fact + 1, max)
        # Entry is further from the exits than the return statement.
        ret = cfg.find_blocks(lambda s: isinstance(s, ast.Return))[0]
        assert facts[cfg.entry.id] > facts[ret.id]


# ----------------------------------------------------------------------
# call graph
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_module_name(self):
        assert module_name("src/repro/engine/backend.py") == "repro.engine.backend"
        assert module_name("src/repro/api/__init__.py") == "repro.api"
        assert module_name("README.md") is None

    def test_self_and_inherited_method_resolution(self):
        project = fixture_project(
            {
                "src/repro/optimizer/_base.py": """
                class Base:
                    def shared(self):
                        return 1
                """,
                "src/repro/optimizer/_impl.py": """
                from repro.optimizer._base import Base

                class Impl(Base):
                    def run(self):
                        self.own()
                        self.shared()
                        mystery()
                    def own(self):
                        return 2
                """,
            }
        )
        graph = CallGraph.build(project)
        callees = {site.callee for site in graph.callees("repro.optimizer._impl.Impl.run")}
        assert "repro.optimizer._impl.Impl.own" in callees
        assert "repro.optimizer._base.Base.shared" in callees
        assert "?mystery" in callees  # unresolved stays explicit

    def test_class_constructor_resolves_to_init(self):
        project = fixture_project(
            {
                "src/repro/optimizer/_ctor.py": """
                class Thing:
                    def __init__(self):
                        self.x = 1

                def make():
                    return Thing()
                """
            }
        )
        graph = CallGraph.build(project)
        callees = {s.callee for s in graph.callees("repro.optimizer._ctor.make")}
        assert "repro.optimizer._ctor.Thing.__init__" in callees

    def test_unknown_callsite_is_marked(self):
        project = fixture_project(
            {
                "src/repro/optimizer/_dyn.py": """
                def go(obj):
                    obj.method()
                """
            }
        )
        graph = CallGraph.build(project)
        sites = graph.callees("repro.optimizer._dyn.go")
        assert sites and all(site.unknown for site in sites)


# ----------------------------------------------------------------------
# lock-order
# ----------------------------------------------------------------------
class TestLockOrder:
    def _check(self, files):
        project = fixture_project(files)
        return list(RULES["lock-order"].check(project))

    def test_two_lock_cycle_detected(self):
        # The seeded deadlock: two locks taken in opposite orders.
        findings = self._check(
            {
                "src/repro/optimizer/_deadlock.py": """
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
                """
            }
        )
        assert rules_of(findings) == ["lock-order"]
        assert "potential deadlock" in findings[0].message
        assert "lock_a" in findings[0].message and "lock_b" in findings[0].message

    def test_cycle_through_call_graph_detected(self):
        findings = self._check(
            {
                "src/repro/optimizer/_svc.py": """
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
                """
            }
        )
        assert rules_of(findings) == ["lock-order"]

    def test_consistent_order_is_clean(self):
        findings = self._check(
            {
                "src/repro/optimizer/_ok.py": """
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
                """
            }
        )
        assert findings == []

    def test_bounded_acquire_is_exempt(self):
        findings = self._check(
            {
                "src/repro/optimizer/_bounded.py": """
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
                """
            }
        )
        assert findings == []


# ----------------------------------------------------------------------
# ctx-propagation
# ----------------------------------------------------------------------
class TestCtxPropagation:
    def test_dropped_ctxs_backend_flagged(self):
        findings = lint_file(
            """
            class Backend:
                def plan_many(self, queries, options=None, ctxs=None):
                    return [self.plan(q, options) for q in queries]
            """,
            path="src/repro/engine/_fixture_backend.py",
            rules={"ctx-propagation"},
        )
        assert rules_of(findings) == ["ctx-propagation"]
        assert "ctxs" in findings[0].message

    def test_consulting_ctxs_first_passes(self):
        findings = lint_file(
            """
            class Backend:
                def plan_many(self, queries, options=None, ctxs=None):
                    if ctxs is None:
                        return [self.plan(q, options) for q in queries]
                    live = self._split_expired(ctxs, len(queries))
                    return [
                        None if ctx is None else self.plan(q, options)
                        for q, ctx in zip(queries, live)
                    ]
            """,
            path="src/repro/engine/_fixture_backend.py",
            rules={"ctx-propagation"},
        )
        assert findings == []

    def test_environment_dropping_ctxs_flagged(self):
        # An episode environment that plans its cohort without the
        # request contexts silently drops every deadline and trace.
        findings = lint_file(
            """
            class Environment:
                def begin_episode_many(self, queries, ctxs=None):
                    plannings = self.database.plan_many(queries)
                    return [planning.plan for planning in plannings]
            """,
            path="src/repro/core/_fixture_env.py",
            rules={"ctx-propagation"},
        )
        assert rules_of(findings) == ["ctx-propagation"]
        assert "begin_episode_many" in findings[0].message

    def test_environment_forwarding_ctxs_passes(self):
        findings = lint_file(
            """
            class Environment:
                def begin_episode_many(self, queries, ctxs=None):
                    plannings = self.database.plan_many(queries, ctxs=ctxs)
                    return [planning.plan for planning in plannings]
            """,
            path="src/repro/core/_fixture_env.py",
            rules={"ctx-propagation"},
        )
        assert findings == []

    def test_protocol_stub_passes(self):
        findings = lint_file(
            """
            class EngineBackend:
                def plan_many(self, queries, options=None, ctxs=None):
                    ...
            """,
            path="src/repro/engine/_fixture_proto.py",
            rules={"ctx-propagation"},
        )
        assert findings == []

    def test_minted_context_dropped_flagged(self):
        findings = lint_file(
            """
            from repro.api.context import RequestContext

            class Service:
                def submit(self, query):
                    ctx = RequestContext.mint(query, timeout_s=1.0)
                    return self._backend.plan(query)
            """,
            path="src/repro/api/_fixture_svc.py",
            rules={"ctx-propagation"},
        )
        assert rules_of(findings) == ["ctx-propagation"]
        assert "mints" in findings[0].message

    def test_minted_context_used_passes(self):
        findings = lint_file(
            """
            from repro.api.context import RequestContext

            class Service:
                def submit(self, query):
                    ctx = RequestContext.mint(query, timeout_s=1.0)
                    return self._backend.plan(query, ctx=ctx)
            """,
            path="src/repro/api/_fixture_svc.py",
            rules={"ctx-propagation"},
        )
        assert findings == []

    def test_raise_path_may_drop_context(self):
        # Refusing a request (admission control) legitimately abandons it.
        findings = lint_file(
            """
            from repro.api.context import RequestContext

            class Service:
                def submit(self, query):
                    ctx = RequestContext.mint(query, timeout_s=1.0)
                    if self._full():
                        raise RuntimeError("rejected")
                    return self._backend.plan(query, ctx=ctx)
            """,
            path="src/repro/api/_fixture_svc.py",
            rules={"ctx-propagation"},
        )
        assert findings == []

    def test_mint_outside_api_not_held_to_contract(self):
        findings = lint_file(
            """
            from repro.api.context import RequestContext

            def helper(query):
                ctx = RequestContext.mint(query, timeout_s=1.0)
                return query
            """,
            path="src/repro/engine/_fixture_other.py",
            rules={"ctx-propagation"},
        )
        assert findings == []


# ----------------------------------------------------------------------
# resource-release
# ----------------------------------------------------------------------
class TestResourceRelease:
    def test_leak_on_exception_flagged(self):
        # The seeded fixture: settimeout/makefile raising leaks the socket.
        findings = lint_file(
            """
            import socket

            class Conn:
                def ensure(self):
                    sock = socket.create_connection(("h", 1), timeout=1.0)
                    sock.settimeout(1.0)
                    self._sock = sock
                    self._stream = sock.makefile("rwb")
            """,
            rules={"resource-release"},
        )
        assert rules_of(findings) == ["resource-release"]
        assert "exception" in findings[0].message

    def test_guarded_by_try_passes(self):
        findings = lint_file(
            """
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
            """,
            rules={"resource-release"},
        )
        assert findings == []

    def test_return_path_leak_flagged(self):
        findings = lint_file(
            """
            import socket

            def probe(host):
                sock = socket.create_connection((host, 1))
                if not sock:
                    return None
                return True
            """,
            rules={"resource-release"},
        )
        assert rules_of(findings) == ["resource-release"]

    def test_finally_with_none_guard_passes(self):
        findings = lint_file(
            """
            def serve(sock):
                stream = None
                try:
                    stream = sock.makefile("rwb")
                    pump(stream)
                finally:
                    if stream is not None:
                        stream.close()
            """,
            rules={"resource-release"},
        )
        assert findings == []

    def test_spawn_loop_without_cleanup_flagged(self):
        # The unguarded shape: Process()/start() raising leaks the pipe.
        findings = lint_file(
            """
            import multiprocessing

            class Pool:
                def spawn(self, ctx, spec):
                    parent_conn, child_conn = ctx.Pipe()
                    proc = ctx.Process(target=run, args=(child_conn, spec))
                    proc.start()
                    child_conn.close()
                    self._conns.append(parent_conn)
            """,
            rules={"resource-release"},
        )
        assert rules_of(findings) == ["resource-release"]
        assert "parent_conn" in findings[0].message

    def test_guarded_spawn_with_ownership_transfer_passes(self):
        findings = lint_file(
            """
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
            """,
            rules={"resource-release"},
        )
        assert findings == []

    def test_connection_lock_release_through_chain_passes(self):
        findings = lint_file(
            """
            class Client:
                def call(self, request):
                    conn = self._acquire()
                    try:
                        return conn.round_trip(request)
                    finally:
                        conn.lock.release()
            """,
            rules={"resource-release"},
        )
        assert findings == []

    def test_acquired_lock_leak_flagged(self):
        findings = lint_file(
            """
            class Client:
                def call(self, request):
                    conn = self._acquire()
                    return conn.round_trip(request)
            """,
            rules={"resource-release"},
        )
        assert rules_of(findings) == ["resource-release"]

    def test_tokenizer_accept_not_a_socket(self):
        # Dotted config keys: the SQL parser's self.accept() is unrelated.
        findings = lint_file(
            """
            class Parser:
                def parse(self):
                    token = self.accept("ident")
                    return token
            """,
            rules={"resource-release"},
        )
        assert findings == []


# ----------------------------------------------------------------------
# rpc-arity: once a flow rule over the client's payload literals and the
# server's destructuring branches; every body is now checked whole
# against its op's shape (``repro.engine.wire.check_body``), and the
# rule's cases stay as seeded regressions of the real client
# (``rpc_surface`` records what it sends to a live server).
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
        unpacking = [kind for kind, op in OPS.items() if op.batch is not None]
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


# ----------------------------------------------------------------------
# incremental CLI: --since, --cache, SARIF
# ----------------------------------------------------------------------
class TestIncrementalCli:
    def _seed(self, tmp_path, dirty=True):
        target = tmp_path / "src" / "repro" / "optimizer"
        target.mkdir(parents=True)
        body = "return hash(key) % 8" if dirty else "return len(key) % 8"
        (target / "mod.py").write_text(
            f"def bucket(key):\n    {body}\n", encoding="utf-8"
        )
        return target / "mod.py"

    def test_changed_files_in_a_real_checkout(self):
        changed = changed_files(REPO_ROOT, "HEAD")
        assert changed is not None  # the repo under test is a git checkout

    def test_changed_files_outside_git_degrades(self, tmp_path):
        assert changed_files(tmp_path, "HEAD") is None

    def test_restrict_limits_file_rules(self, tmp_path):
        self._seed(tmp_path)
        config = LintConfig()
        _, dirty, _ = run_lint(tmp_path, config, ["src"], only_rules={"det-hash"})
        assert [f.rule for f, _ in dirty] == ["det-hash"]
        _, restricted, _ = run_lint(
            tmp_path, config, ["src"], only_rules={"det-hash"}, restrict=set()
        )
        assert restricted == []

    def test_since_falls_back_outside_git(self, tmp_path, capsys):
        self._seed(tmp_path)
        code = main(
            [
                "--project-root",
                str(tmp_path),
                "--since",
                "HEAD",
                "--no-baseline",
                "--rules",
                "det-hash",
                "src",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1  # fell back to the full run and found det-hash
        assert "falling back" in captured.err

    def test_cache_round_trip_and_invalidation(self, tmp_path, capsys):
        mod = self._seed(tmp_path)
        base = [
            "--project-root",
            str(tmp_path),
            "--no-baseline",
            "--cache",
            "--rules",
            "det-hash",
            "src",
        ]
        assert main(base) == 1
        cache_file = tmp_path / ".repro-lint-cache.json"
        assert cache_file.is_file()
        capsys.readouterr()
        # Warm run: same verdict served from the cache.
        assert main(base) == 1
        first = capsys.readouterr().out
        assert "det-hash" in first
        # Editing the file invalidates its entry.
        mod.write_text("def bucket(key):\n    return len(key) % 8\n", encoding="utf-8")
        assert main(base) == 0

    def test_cache_salt_invalidates_on_config_change(self, tmp_path):
        from repro.analysis.cache import ResultCache, config_salt

        salt_a = config_salt(LintConfig(), ("r1",))
        salt_b = config_salt(LintConfig(baseline="other.json"), ("r1",))
        salt_c = config_salt(LintConfig(), ("r1", "r2"))
        assert len({salt_a, salt_b, salt_c}) == 3
        # A cache written under one salt is ignored under another.
        path = tmp_path / "cache.json"
        cache = ResultCache(path, salt_a)
        cache.put("src/x.py", "aa", [], [], 0)
        cache.save()
        reloaded = ResultCache.load(path, LintConfig(baseline="other.json"), ("r1",))
        assert reloaded.entries == {}

    def test_sarif_output_shape(self, tmp_path, capsys):
        self._seed(tmp_path)
        code = main(
            [
                "--project-root",
                str(tmp_path),
                "--no-baseline",
                "--rules",
                "det-hash",
                "--format",
                "sarif",
                "src",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        result = run["results"][0]
        assert result["ruleId"] == "det-hash"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/optimizer/mod.py"
        assert location["region"]["startLine"] == 2
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "det-hash" in rule_ids

    def test_json_alias_still_works(self, tmp_path, capsys):
        self._seed(tmp_path)
        code = main(
            [
                "--project-root",
                str(tmp_path),
                "--no-baseline",
                "--rules",
                "det-hash",
                "--json",
                "src",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["findings"][0]["rule"] == "det-hash"


# ----------------------------------------------------------------------
# meta: the real tree under the flow rules
# ----------------------------------------------------------------------
class TestRealTreeFlow:
    def test_real_tree_clean_under_flow_rules(self):
        code = main(
            [
                "--project-root",
                str(REPO_ROOT),
                "--rules",
                "lock-order,ctx-propagation,resource-release",
                "src",
            ]
        )
        assert code == 0

    def test_real_pool_locks_have_no_cycle(self):
        # The acceptance check spelled out in the issue: the lock graph
        # over the real OptimizerService / ServiceGroup / RemoteBackend
        # code has no cross-lock cycle.
        project = Project(REPO_ROOT, LintConfig())
        findings = list(RULES["lock-order"].check(project))
        assert findings == []
