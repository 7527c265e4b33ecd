"""Tests for ``repro.analysis`` (the ``repro-lint`` invariant checker).

Three tiers:

* per-rule fixture pairs — a failing and a passing snippet compiled from
  strings for every rule family, so each contract is pinned by example;
* the cases of the retired rpc-parity rule, now seeded regressions of
  the real engine client against the wire's op table;
* framework tests — suppression grammar, baseline round trip, CLI exit
  codes, config validation (including the TOML-subset fallback parser);
* meta-tests against the real tree — ``repro-lint`` must exit 0 over
  ``src tests benchmarks`` with the checked-in (empty) baseline, and the
  engine must import without dragging in ``repro.api`` (the layering fix
  this linter exists to keep fixed).
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.analysis.rules  # noqa: F401  (registers the built-in rules)
from repro.analysis.cli import main, run_lint
from repro.analysis.config import LintConfig, LintConfigError
from repro.analysis.core import Baseline, Finding, Project, SourceFile
from repro.analysis.registry import RULES, iter_rules
from repro.engine.backend import EngineBackend
from repro.engine.database import Database
from repro.engine.remote import RemoteBackend
from repro.engine.wire import OPS, Op
from rpc_surface import op_table_gaps, public_methods, record_ops, uncovered_methods

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_source(source, path="src/repro/optimizer/_fixture.py", config=None, rules=None):
    """Run file-scoped rules over one in-memory fixture file."""
    project = Project(REPO_ROOT, config or LintConfig())
    sf = project.add(path, textwrap.dedent(source))
    assert sf is not None, "fixture source must parse"
    found = []
    for registered in iter_rules("file"):
        if rules is not None and registered.name not in rules:
            continue
        found.extend(registered.check(sf, project))
    return [f for f in found if not sf.suppressed(f)]


def rules_of(findings):
    return sorted(f.rule for f in findings)


# ----------------------------------------------------------------------
# determinism rules
# ----------------------------------------------------------------------
class TestDeterminismRules:
    def test_builtin_hash_flagged(self):
        findings = lint_source(
            """
            def bucket(key):
                return hash(key) % 8
            """,
            rules={"det-hash"},
        )
        assert rules_of(findings) == ["det-hash"]

    def test_crc32_passes(self):
        findings = lint_source(
            """
            import zlib

            def bucket(key):
                return zlib.crc32(key) % 8
            """,
            rules={"det-hash"},
        )
        assert findings == []

    def test_rebound_hash_name_passes(self):
        findings = lint_source(
            """
            from mymod import hash

            def bucket(key):
                return hash(key) % 8
            """,
            rules={"det-hash"},
        )
        assert findings == []

    def test_global_state_rng_calls_flagged(self):
        findings = lint_source(
            """
            import random
            import numpy as np

            def sample(n):
                return [random.random() for _ in range(n)] + list(np.random.rand(n))
            """,
            rules={"det-unseeded-random"},
        )
        assert rules_of(findings) == ["det-unseeded-random"] * 2

    def test_explicit_seeded_generator_passes(self):
        findings = lint_source(
            """
            import numpy as np

            def sample(seed, n):
                rng = np.random.default_rng(seed)
                return rng.normal(size=n)
            """,
            rules={"det-unseeded-random"},
        )
        assert findings == []

    def test_module_level_unseeded_default_rng_flagged(self):
        findings = lint_source(
            """
            import numpy as np

            RNG = np.random.default_rng()
            """,
            rules={"det-unseeded-random"},
        )
        assert rules_of(findings) == ["det-unseeded-random"]

    def test_bare_set_iteration_flagged(self):
        findings = lint_source(
            """
            def tables(plans):
                for name in set(p.table for p in plans):
                    yield name
                return [kind for kind in {"scan", "join"}]
            """,
            rules={"det-set-order"},
        )
        assert rules_of(findings) == ["det-set-order"] * 2

    def test_sorted_set_iteration_passes(self):
        findings = lint_source(
            """
            def tables(plans):
                for name in sorted(set(p.table for p in plans)):
                    yield name
            """,
            rules={"det-set-order"},
        )
        assert findings == []


# ----------------------------------------------------------------------
# clock rules
# ----------------------------------------------------------------------
class TestClockRules:
    def test_wall_clock_flagged(self):
        findings = lint_source(
            """
            import time
            from datetime import datetime

            def stamp():
                return time.time(), datetime.now()
            """,
            rules={"clock-wall"},
        )
        assert rules_of(findings) == ["clock-wall"] * 2

    def test_wall_clock_reference_without_call_flagged(self):
        findings = lint_source(
            """
            import time

            CLOCK = time.time
            """,
            rules={"clock-wall"},
        )
        assert rules_of(findings) == ["clock-wall"]

    def test_monotonic_outside_sanctioned_module_flagged(self):
        source = """
        import time

        def now():
            return time.monotonic()
        """
        assert rules_of(lint_source(source, rules={"clock-monotonic"})) == ["clock-monotonic"]
        # The sanctioned clock module is allowlisted.
        assert lint_source(
            source, path="src/repro/engine/context.py", rules={"clock-monotonic"}
        ) == []

    def test_perf_counter_allowlist(self):
        source = """
        import time

        def measure():
            return time.perf_counter()
        """
        assert rules_of(
            lint_source(source, path="src/repro/core/batching.py", rules={"clock-perf-counter"})
        ) == ["clock-perf-counter"]
        assert lint_source(
            source, path="src/repro/nn/tensor.py", rules={"clock-perf-counter"}
        ) == []
        # Ops are timed in Function.apply only, not per op module.
        assert rules_of(
            lint_source(source, path="src/repro/nn/functional.py", rules={"clock-perf-counter"})
        ) == ["clock-perf-counter"]

    def test_clock_rules_apply_only_under_enforced_roots(self):
        findings = lint_source(
            """
            import time

            def stamp():
                return time.time()
            """,
            path="tests/test_something.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# layering rule
# ----------------------------------------------------------------------
class TestLayeringRule:
    def test_engine_importing_api_flagged(self):
        findings = lint_source(
            """
            from repro.api.context import RequestContext
            """,
            path="src/repro/engine/_fixture.py",
            rules={"layer-import"},
        )
        assert rules_of(findings) == ["layer-import"]
        assert "engine -> api" in findings[0].message

    def test_lazy_import_also_flagged(self):
        findings = lint_source(
            """
            def decode(data):
                from repro.api.context import RequestContext

                return RequestContext.from_wire(data)
            """,
            path="src/repro/engine/_fixture.py",
            rules={"layer-import"},
        )
        assert rules_of(findings) == ["layer-import"]

    def test_api_importing_engine_passes(self):
        findings = lint_source(
            """
            from repro.engine.backend import InProcessBackend
            """,
            path="src/repro/api/_fixture.py",
            rules={"layer-import"},
        )
        assert findings == []

    def test_named_exception_allows_one_module_only(self):
        # engine -> workloads.base is an explicit, justified exception...
        assert lint_source(
            "from repro.workloads.base import WorkloadSpec\n",
            path="src/repro/engine/_fixture.py",
            rules={"layer-import"},
        ) == []
        # ...and it does not open the rest of workloads to the engine.
        findings = lint_source(
            "from repro.workloads.job import build_job\n",
            path="src/repro/engine/_fixture.py",
            rules={"layer-import"},
        )
        assert rules_of(findings) == ["layer-import"]

    def test_undeclared_package_flagged(self):
        findings = lint_source(
            "import repro.engine\n",
            path="src/repro/newpkg/_fixture.py",
            rules={"layer-import"},
        )
        assert rules_of(findings) == ["layer-import"]
        assert "not declared" in findings[0].message


# ----------------------------------------------------------------------
# concurrency rule
# ----------------------------------------------------------------------
class TestLockBlockingRule:
    def test_blocking_call_in_with_lock_flagged(self):
        findings = lint_source(
            """
            def call(self, payload):
                with self._lock:
                    return self._conn.recv()
            """,
            rules={"lock-blocking"},
        )
        assert rules_of(findings) == ["lock-blocking"]

    def test_acquire_try_finally_pattern_flagged(self):
        findings = lint_source(
            """
            def call(self, payload):
                self._lock.acquire()
                try:
                    return self._conn.recv()
                finally:
                    self._lock.release()
            """,
            rules={"lock-blocking"},
        )
        assert rules_of(findings) == ["lock-blocking"]

    def test_blocking_call_without_lock_passes(self):
        findings = lint_source(
            """
            def call(self, payload):
                return self._conn.recv()
            """,
            rules={"lock-blocking"},
        )
        assert findings == []

    def test_timeout_bounds_join_and_wait(self):
        findings = lint_source(
            """
            def stop(self):
                with self._lock:
                    self._thread.join(5.0)
                    self._event.wait(timeout=1.0)
            """,
            rules={"lock-blocking"},
        )
        assert findings == []
        findings = lint_source(
            """
            def stop(self):
                with self._lock:
                    self._thread.join()
            """,
            rules={"lock-blocking"},
        )
        assert rules_of(findings) == ["lock-blocking"]

    def test_named_suppression_silences_the_site(self):
        findings = lint_source(
            """
            def call(self, payload):
                with self._lock:
                    return self._conn.recv()  # repro-lint: allow[lock-blocking]
            """,
            rules={"lock-blocking"},
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPC parity: once a project rule that pattern-matched the server's
# dispatch chain against the client's ``_call`` literals; the op table
# (``repro.engine.wire.OPS``) now holds it, checked against a live server
# by recording what a real client sends (``rpc_surface``).  The rule's
# cases stay, as seeded regressions of the real client and table.
# ----------------------------------------------------------------------
_real_stats = RemoteBackend.stats


def _stats_then_one_sided_op(self):
    stats = _real_stats(self)
    self._call("one_sided_op", None)
    return stats


class TestRpcParityRule:
    def test_matched_surfaces_pass(self, engine_url, job_workload, monkeypatch):
        sent, failures = record_ops(engine_url, job_workload, monkeypatch)
        assert failures == []
        assert op_table_gaps(sent) == []
        assert {kind for kind, _body in sent} == set(OPS)

    def test_client_emitting_unhandled_op_flagged(self, engine_url, job_workload, monkeypatch):
        monkeypatch.setattr(RemoteBackend, "stats", _stats_then_one_sided_op)
        sent, failures = record_ops(engine_url, job_workload, monkeypatch)
        assert [failure.split(":")[0] for failure in failures] == ["stats"]
        assert op_table_gaps(sent) == [
            "client sends 'one_sided_op': unknown engine RPC 'one_sided_op'"
        ]

    def test_server_only_op_must_be_declared(self, engine_url, job_workload, monkeypatch):
        """No op is server-only: a handler no client call sends is flagged,
        and there is nowhere to declare it an exception."""
        monkeypatch.setitem(OPS, "server_only_op", Op(lambda body: body is None, lambda *args: None))
        sent, failures = record_ops(engine_url, job_workload, monkeypatch)
        assert failures == []
        assert op_table_gaps(sent) == [
            "'server_only_op' is in the op table but no client call sends it"
        ]

    def test_real_remote_protocol_is_in_parity(self):
        """Both backends define the whole ``EngineBackend`` protocol in their
        own class bodies, and the recording drives every public method."""
        protocol = public_methods(EngineBackend)
        assert protocol <= public_methods(Database)
        assert protocol <= public_methods(RemoteBackend)
        assert uncovered_methods() == set()


# ----------------------------------------------------------------------
# suppression grammar
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_same_line_allow(self):
        sf = SourceFile("f.py", 'x = compute()  # repro-lint: allow[det-hash]\n')
        assert sf.allows == {1: {"det-hash"}}
        assert sf.suppression_errors == []

    def test_comment_line_above_covers_next_line(self):
        sf = SourceFile(
            "f.py",
            "# repro-lint: allow[lock-blocking, det-hash]\nx = compute()\n",
        )
        assert sf.allows[2] == {"lock-blocking", "det-hash"}

    def test_marker_inside_string_is_not_a_suppression(self):
        sf = SourceFile("f.py", 's = "# repro-lint: allow[det-hash]"\n')
        assert sf.allows == {}

    def test_malformed_directive_is_an_error(self):
        sf = SourceFile("f.py", "x = 1  # repro-lint: allow\n")
        assert len(sf.suppression_errors) == 1
        sf = SourceFile("f.py", "x = 1  # repro-lint: allow[]\n")
        assert len(sf.suppression_errors) == 1

    def test_unknown_rule_name_is_a_finding_and_not_suppressible(self, tmp_path):
        target = tmp_path / "src" / "repro" / "optimizer"
        target.mkdir(parents=True)
        (target / "bad.py").write_text(
            "x = 1  # repro-lint: allow[no-such-rule]\n"
        )
        _, findings, _ = run_lint(
            tmp_path, LintConfig(), ["src"], only_rules={"det-hash"}
        )
        assert [f.rule for f, _text in findings] == ["bad-suppression"]
        assert "no-such-rule" in findings[0][0].message


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------
class TestBaseline:
    def test_fingerprint_ignores_line_number_but_not_text(self):
        a = Finding("det-hash", "src/x.py", 10, "m")
        b = Finding("det-hash", "src/x.py", 99, "m")
        assert a.fingerprint("  hash(k)  ") == b.fingerprint("hash(k)")
        assert a.fingerprint("hash(k)") != a.fingerprint("hash(v)")

    def test_split_consumes_entries(self):
        finding = Finding("det-hash", "src/x.py", 3, "m")
        twin = Finding("det-hash", "src/x.py", 7, "m")
        baseline = Baseline(entries=[Baseline.entry(finding, "hash(k)")])
        fresh, grandfathered = baseline.split([(finding, "hash(k)"), (twin, "hash(k)")])
        assert len(grandfathered) == 1 and len(fresh) == 1

    def test_cli_baseline_round_trip(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "optimizer"
        target.mkdir(parents=True)
        (target / "bad.py").write_text("def f(k):\n    return hash(k)\n")
        base = ["--project-root", str(tmp_path), "--rules", "det-hash"]
        assert main(base + ["src"]) == 1
        assert main(base + ["--write-baseline", "src"]) == 0
        entries = json.loads((tmp_path / "lint-baseline.json").read_text())["findings"]
        assert len(entries) == 1 and entries[0]["rule"] == "det-hash"
        capsys.readouterr()
        # Baselined findings no longer fail...
        assert main(base + ["src"]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out
        # ...but --no-baseline still surfaces them.
        assert main(base + ["--no-baseline", "src"]) == 1

    def test_checked_in_baseline_is_empty(self):
        data = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
        assert data == {"version": 1, "findings": []}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in ("det-hash", "clock-wall", "layer-import", "lock-blocking", "lock-order"):
            assert name in out

    def test_unknown_rule_is_usage_error(self):
        assert main(["--rules", "no-such-rule", "src"]) == 2

    def test_json_output_shape(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "optimizer"
        target.mkdir(parents=True)
        (target / "bad.py").write_text("def f(k):\n    return hash(k)\n")
        code = main(
            ["--project-root", str(tmp_path), "--rules", "det-hash", "--json", "src"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [f["rule"] for f in payload["findings"]] == ["det-hash"]
        assert payload["files"] == 1

    def test_syntax_error_is_a_parse_error_finding(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "broken.py").write_text("def f(:\n")
        _, findings, _ = run_lint(tmp_path, LintConfig(), ["src"], only_rules=set())
        assert [f.rule for f, _text in findings] == ["parse-error"]

    def test_real_tree_is_clean(self, capsys):
        """The meta-test: repro-lint over the actual repo finds nothing."""
        code = main(["--project-root", str(REPO_ROOT), "src", "tests", "benchmarks"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 findings" in out


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------
class TestConfig:
    def test_cyclic_layer_table_rejected(self):
        with pytest.raises(LintConfigError, match="cyclic"):
            LintConfig(layers={"a": ("b",), "b": ("a",)})

    def test_undeclared_dependency_rejected(self):
        with pytest.raises(LintConfigError):
            LintConfig(layers={"a": ("zzz",)})

    def test_malformed_exception_edge_rejected(self):
        with pytest.raises(LintConfigError, match="->"):
            LintConfig(layer_exceptions={"nonsense": "reason"})

    def test_pyproject_table_matches_code_defaults(self):
        """[tool.repro-lint] is the declarative source; defaults mirror it."""
        import dataclasses

        from_file = LintConfig.from_pyproject(REPO_ROOT / "pyproject.toml")
        defaults = LintConfig()
        for f in dataclasses.fields(LintConfig):
            assert getattr(from_file, f.name) == getattr(defaults, f.name), f.name


# ----------------------------------------------------------------------
# the layering fix the linter guards (engine must not import repro.api)
# ----------------------------------------------------------------------
class TestEngineApiDecoupling:
    def test_engine_imports_pull_no_api_modules(self):
        """A standalone repro-engine process never loads repro.api, yet
        rebuilds the one RequestContext type from the wire with its
        deadline arithmetic intact."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        script = (
            "import sys\n"
            "import repro.engine.wire\n"
            "import repro.engine.remote.server\n"
            "from repro.engine.context import RequestContext\n"
            "from repro.engine.wire import contexts_from_wire\n"
            "[ctx] = contexts_from_wire([{'id': 'r1', 'ttl_s': 5.0}])\n"
            "assert type(ctx) is RequestContext, type(ctx)\n"
            "assert ctx.request_id == 'r1' and ctx.deadline_s == 5.0\n"
            "assert not ctx.expired(now=ctx.submitted_at + 4.9)\n"
            "assert ctx.expired(now=ctx.submitted_at + 5.1)\n"
            "assert abs(ctx.remaining_s(now=ctx.submitted_at + 2.0) - 3.0) < 1e-9\n"
            "data = ctx.to_wire(now=ctx.submitted_at + 2.0)\n"
            "assert set(data) == {'id', 'ttl_s'} and abs(data['ttl_s'] - 3.0) < 1e-9\n"
            "loaded = [m for m in sys.modules if m.startswith('repro.api')]\n"
            "assert not loaded, loaded\n"
        )
        subprocess.run(
            [sys.executable, "-c", script], env=env, check=True, timeout=60
        )
