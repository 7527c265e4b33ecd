"""Seeded regressions of the syntactic source invariants, and checks on the
literals, reports and tooling around them.

The checks themselves live in ``tests/test_invariants.py``, which also
holds the real-tree test of each one.  Here:

* every check is fed the snippets it must flag and the near misses it must
  pass, by rule family (determinism, clocks, layering, lock blocking,
  unused imports, one forward, one cost model);
* a scratch copy of ``src/repro`` takes a regression in a real module, to
  show the tree walk reports it at its file and line and nowhere else;
* the old suppression comments exempt nothing: the allowlists in
  ``tests/test_invariants.py`` are the only exemptions, each scoped to one
  check;
* the layer DAG and its exceptions reject malformed entries, the README's
  invariants table and its performance contracts name real tests, and
  ``pyproject.toml`` holds only the ruff tables;
* the real engine client is held to the wire's op table, and a standalone
  engine process never loads ``repro.api``.
"""

import ast
import fnmatch
import functools
import graphlib
import os
import re
import shutil
import subprocess
import sys
import tokenize
import tomllib
from pathlib import Path

import pytest

import test_invariants as inv
from repro.engine.backend import EngineBackend
from repro.engine.database import Database
from repro.engine.remote import RemoteBackend
from repro.engine.wire import OPS, Op
from rpc_surface import op_table_gaps, public_methods, record_ops, uncovered_methods
from test_invariants import (
    CHECKS,
    IMPORT_GLOBS,
    LAYER_EXCEPTIONS,
    LAYERS,
    MONOTONIC_ALLOW,
    MONOTONIC_CLOCKS,
    PACKAGE,
    PERF_CLOCKS,
    PERF_COUNTER_ALLOW,
    REPO_ROOT,
    clock_monotonic,
    clock_perf_counter,
    clock_wall,
    det_hash,
    det_set_order,
    det_unseeded_random,
    hits,
    import_checked_scripts,
    layer_dag_problems,
    layer_exception_problems,
    layer_import,
    lock_blocking,
    one_cost_model,
    one_forward,
    src_modules,
    unused_import,
    violations,
)

# The retired checker's name, spelled in parts so this file does not match
# the searches below.
LINTER = "-".join(("repro", "lint"))

CLIENT = "src/repro/engine/remote/client.py"


@pytest.fixture
def tree(tmp_path):
    """A scratch copy of ``src/repro`` to seed regressions into real modules."""
    shutil.copytree(PACKAGE, tmp_path / "src" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def append(root: Path, rel: str, snippet: str) -> int:
    """Append ``snippet`` to the module at ``rel``; return its first line."""
    path = root / rel
    source = path.read_text(encoding="utf-8") + "\n\n"
    path.write_text(source + snippet, encoding="utf-8")
    return source.count("\n") + 1


HASH_SNIPPET = "def _seeded(key):\n    return hash(key)\n"


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDeterminismRules:
    def test_builtin_hash_flagged(self):
        assert hits(det_hash, """
            def bucket(key):
                return hash(key) % 8
            """) == 1

    def test_crc32_passes(self):
        assert hits(det_hash, """
            import zlib

            def bucket(key):
                return zlib.crc32(key) % 8
            """) == 0

    def test_rebound_hash_name_passes(self):
        assert hits(det_hash, """
            from mymod import hash

            def bucket(key):
                return hash(key) % 8
            """) == 0

    def test_global_state_rng_calls_flagged(self):
        assert hits(det_unseeded_random, """
            import random
            import numpy as np

            def sample(n):
                return [random.random() for _ in range(n)] + list(np.random.rand(n))
            """) == 2

    def test_explicit_seeded_generator_passes(self):
        assert hits(det_unseeded_random, """
            import numpy as np

            def sample(seed, n):
                rng = np.random.default_rng(seed)
                return rng.normal(size=n)
            """) == 0

    def test_module_level_unseeded_default_rng_flagged(self):
        assert hits(det_unseeded_random, """
            import numpy as np

            RNG = np.random.default_rng()
            """) == 1

    def test_bare_set_iteration_flagged(self):
        assert hits(det_set_order, """
            def tables(plans):
                for name in set(p.table for p in plans):
                    yield name
                return [kind for kind in {"scan", "join"}]
            """) == 2

    def test_sorted_set_iteration_passes(self):
        assert hits(det_set_order, """
            def tables(plans):
                for name in sorted(set(p.table for p in plans)):
                    yield name
            """) == 0


# ----------------------------------------------------------------------
# clocks
# ----------------------------------------------------------------------
MONOTONIC_SNIPPET = """
    import time

    def now():
        return time.monotonic()
    """
PERF_SNIPPET = """
    import time

    def measure():
        return time.perf_counter()
    """


class TestClockRules:
    def test_wall_clock_flagged(self):
        assert hits(clock_wall, """
            import time
            from datetime import datetime

            def stamp():
                return time.time(), datetime.now()
            """) == 2

    def test_wall_clock_reference_without_call_flagged(self):
        assert hits(clock_wall, """
            import time

            CLOCK = time.time
            """) == 1

    def test_monotonic_outside_sanctioned_module_flagged(self):
        assert hits(clock_monotonic, MONOTONIC_SNIPPET) == 1
        # The sanctioned clock module is allowlisted.
        assert hits(clock_monotonic, MONOTONIC_SNIPPET, "src/repro/engine/context.py") == 0

    def test_perf_counter_allowlist(self):
        assert hits(clock_perf_counter, PERF_SNIPPET, "src/repro/core/batching.py") == 1
        assert hits(clock_perf_counter, PERF_SNIPPET, "src/repro/core/trainer.py") == 0
        # No nn module reads a clock: ops are not timed.
        assert hits(clock_perf_counter, PERF_SNIPPET, "src/repro/nn/layers.py") == 1
        assert hits(clock_perf_counter, PERF_SNIPPET, "src/repro/nn/functional.py") == 1

    def test_clock_rules_apply_only_under_enforced_roots(self, tree):
        """Only ``src/repro`` is held to the clock rules: tests and
        benchmarks time themselves with whatever clock they like."""
        for rel in ("tests/test_something.py", "benchmarks/bench_something.py"):
            path = tree / rel
            path.parent.mkdir(parents=True)
            path.write_text("import time\n\ndef stamp():\n    return time.time()\n")
        assert all(module.path.startswith("src/repro/") for module in src_modules(tree))
        assert violations(clock_wall, tree) == []
        line = append(tree, "src/repro/core/batching.py", "import time\nSTAMP = time.time()\n")
        assert violations(clock_wall, tree) == [f"src/repro/core/batching.py:{line + 1}"]


# ----------------------------------------------------------------------
# layering
# ----------------------------------------------------------------------
class TestLayeringRule:
    def test_engine_importing_api_flagged(self):
        assert hits(layer_import, """
            from repro.api.context import RequestContext
            """, "src/repro/engine/_fixture.py") == 1

    def test_lazy_import_also_flagged(self):
        assert hits(layer_import, """
            def decode(data):
                from repro.api.context import RequestContext

                return RequestContext.from_wire(data)
            """, "src/repro/engine/_fixture.py") == 1

    def test_api_importing_engine_passes(self):
        assert hits(layer_import, """
            from repro.engine.backend import InProcessBackend
            """, "src/repro/api/_fixture.py") == 0

    def test_named_exception_allows_one_module_only(self):
        # engine -> workloads.base is an explicit, justified exception...
        assert hits(layer_import, "from repro.workloads.base import WorkloadSpec\n",
                    "src/repro/engine/_fixture.py") == 0
        # ...and it does not open the rest of workloads to the engine.
        assert hits(layer_import, "from repro.workloads.job import build_job\n",
                    "src/repro/engine/_fixture.py") == 1

    def test_undeclared_package_flagged(self):
        assert hits(layer_import, "import repro.engine\n", "src/repro/newpkg/_fixture.py") == 1


# ----------------------------------------------------------------------
# unused imports
# ----------------------------------------------------------------------
class TestUnusedImportRule:
    def test_unread_module_level_imports_flagged(self):
        assert hits(unused_import, """
            import math
            import numpy as np
            from typing import List, Optional

            def rows(values: List[float]) -> float:
                return sum(values)
            """) == 3

    def test_names_read_anywhere_pass(self):
        assert hits(unused_import, """
            from __future__ import annotations

            import os.path
            from typing import TYPE_CHECKING, Dict

            if TYPE_CHECKING:
                from repro.sql.ast import Query

            __all__ = ["Dict"]

            def home(query: "Query") -> str:
                return os.path.join("a", "b")
            """) == 0

    def test_imports_inside_functions_and_package_inits_pass(self):
        assert hits(unused_import, """
            def lazy():
                import json
            """) == 0
        assert hits(unused_import, "from repro.optimizer.dp import JoinSpace\n",
                    "src/repro/optimizer/__init__.py") == 0

    def test_seeded_regression_reported_at_its_line(self, tree):
        """An import the planner never reads, in a copy of the real tree."""
        assert violations(unused_import, tree) == []
        rel = "src/repro/optimizer/dp.py"
        path = tree / rel
        source = path.read_text(encoding="utf-8")
        path.write_text(source.replace("import numpy as np\n", "import numpy as np\nimport math\n", 1),
                        encoding="utf-8")
        line = source.split("import numpy as np\n", 1)[0].count("\n") + 2
        assert violations(unused_import, tree) == [f"{rel}:{line}"]

    @pytest.mark.parametrize(
        "rel", ["tests/test_sql.py", "examples/serve_concurrent.py", "benchmarks/conftest.py"]
    )
    def test_seeded_regression_outside_the_package(self, tmp_path, rel):
        """The walk also reads the tests, the examples and the paper benches."""
        for path in {path for glob in IMPORT_GLOBS for path in REPO_ROOT.glob(glob)}:
            copy = tmp_path / path.relative_to(REPO_ROOT)
            copy.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, copy)
        assert violations(unused_import, tmp_path, import_checked_scripts) == []
        seeded = tmp_path / rel
        seeded.write_text("import zlib as _never_read\n" + seeded.read_text(encoding="utf-8"),
                          encoding="utf-8")
        assert violations(unused_import, tmp_path, import_checked_scripts) == [f"{rel}:1"]


# ----------------------------------------------------------------------
# blocking while holding a lock
# ----------------------------------------------------------------------
class TestOneForwardRule:
    def test_forward_beside_infer_flagged(self):
        assert hits(one_forward, """
            class Block:
                def forward(self, x):
                    return x, lambda grad: grad

                def infer(self, x):
                    return x
            """) == 1

    def test_backward_flagged_as_op_and_as_walk(self):
        assert hits(one_forward, """
            class Square:
                def forward(ctx, a):
                    ctx.a = a
                    return a * a

                def backward(ctx, grad):
                    return (2.0 * ctx.a * grad,)

            def backward(root):
                return root
            """) == 2

    def test_importing_the_tests_flagged(self):
        assert hits(one_forward, """
            import tests.reference_tape
            from reference_tape import Tensor
            from tests import conftest
            """) == 3

    def test_one_forward_and_named_backward_bodies_pass(self):
        assert hits(one_forward, """
            from repro.nn.functional import linear, linear_backward

            class Dense:
                def forward(self, x):
                    out = linear(x, self.w)
                    return out, lambda grad: linear_backward(grad, x, self.w, out, None)[0]

            class Scorer:
                def infer(self, x):
                    return x
            """) == 0

    def test_seeded_regression_reported_at_its_line(self, tree):
        first = append(tree, "src/repro/nn/layers.py", """class Twin(Module):
    def forward(self, x):
        return x, None

    def infer(self, x):
        return x
""")
        second = append(tree, "src/repro/core/aam.py", "from reference_tape import Tensor\n")
        assert violations(one_forward, tree) == [
            f"src/repro/core/aam.py:{second}",
            f"src/repro/nn/layers.py:{first}",
        ]


# ----------------------------------------------------------------------
# one cost model
# ----------------------------------------------------------------------
class TestOneCostModelRule:
    def test_construction_flagged_however_imported(self):
        assert hits(one_cost_model, """
            from dataclasses import replace
            from repro.optimizer import cost
            from repro.optimizer.cost import CostModel, CostParameters
            from repro.optimizer.cost import CostModel as Prices

            A = CostModel(CostParameters(*[1.0] * 13))
            B = cost.CostModel(replace(cost.RUNTIME_COSTS.params, seq_tuple=2.0))
            C = Prices(cost.PLANNER_COSTS.params)
            """) == 3

    def test_the_constants_and_annotations_pass(self):
        assert hits(one_cost_model, """
            from repro.optimizer.cost import PLANNER_COSTS, RUNTIME_COSTS, CostModel

            def price(rows: float, model: CostModel = PLANNER_COSTS) -> float:
                return model.sort(rows) + RUNTIME_COSTS.sort(rows)
            """) == 0

    def test_only_the_cost_module_is_exempt(self):
        """The allowlist exempts real constructions: the cost module's own
        source, placed anywhere else, is flagged."""
        source = (PACKAGE / "optimizer" / "cost.py").read_text(encoding="utf-8")
        assert hits(one_cost_model, source, path="src/repro/optimizer/cost.py") == 0
        assert hits(one_cost_model, source, path="src/repro/optimizer/dp.py") == 2

    def test_seeded_regression_reported_at_its_line(self, tree):
        """A client pricing plans with a cost model of its own."""
        first = append(tree, CLIENT, (
            "from repro.optimizer.cost import PLANNER_COSTS, CostModel\n"
            "_OWN_COSTS = CostModel(PLANNER_COSTS.params)\n"
        ))
        assert violations(one_cost_model, tree) == [f"{CLIENT}:{first + 1}"]


class TestLockBlockingRule:
    def test_blocking_call_in_with_lock_flagged(self):
        assert hits(lock_blocking, """
            def call(self, payload):
                with self._lock:
                    return self._conn.recv()
            """) == 1

    def test_acquire_try_finally_pattern_flagged(self):
        assert hits(lock_blocking, """
            def call(self, payload):
                self._lock.acquire()
                try:
                    return self._conn.recv()
                finally:
                    self._lock.release()
            """) == 1

    def test_blocking_call_without_lock_passes(self):
        assert hits(lock_blocking, """
            def call(self, payload):
                return self._conn.recv()
            """) == 0

    def test_timeout_bounds_join_and_wait(self):
        assert hits(lock_blocking, """
            def stop(self):
                with self._lock:
                    self._thread.join(5.0)
                    self._event.wait(timeout=1.0)
            """) == 0
        assert hits(lock_blocking, """
            def stop(self):
                with self._lock:
                    self._thread.join()
            """) == 1

    def test_named_suppression_silences_the_site(self):
        """The pipe discipline is allowlisted by function, not by line."""
        source = """
            def _call(self, payload):
                with self._lock:
                    return self._conn.recv()
            """
        assert hits(lock_blocking, source, CLIENT) == 0
        assert hits(lock_blocking, source, "src/repro/engine/remote/server.py") == 1


# ----------------------------------------------------------------------
# exemptions are the allowlists; comments exempt nothing
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_same_line_allow(self):
        assert hits(det_hash, f"""
            def bucket(key):
                return hash(key) % 8  # {LINTER}: allow[det-hash] legacy
            """) == 1

    def test_comment_line_above_covers_next_line(self):
        assert hits(lock_blocking, f"""
            def call(self, payload):
                with self._lock:
                    # {LINTER}: allow[lock-blocking] bounded by the socket timeout
                    return self._conn.recv()
            """) == 1
        # The allowlist covers the whole named function, and only it.
        assert hits(lock_blocking, """
            class RemoteBackend:
                def _call(self, payload):
                    with self._lock:
                        self._conn.send(payload)
                        return self._conn.recv()

                def _call_twice(self, payload):
                    with self._lock:
                        return self._conn.recv()
            """, CLIENT) == 1

    def test_malformed_directive_is_an_error(self):
        """No directive comment of the retired checker is left to read as
        if it still exempted its line."""
        stale = []
        for top in ("src", "tests", "benchmarks"):
            for path in sorted((REPO_ROOT / top).rglob("*.py")):
                with tokenize.open(path) as handle:
                    stale += [
                        f"{path.relative_to(REPO_ROOT)}:{token.start[0]}"
                        for token in tokenize.generate_tokens(handle.readline)
                        if token.type == tokenize.COMMENT and LINTER in token.string
                    ]
        assert stale == []

    def test_marker_inside_string_is_not_a_suppression(self):
        """The checks read code, not text: a call spelled inside a string
        or a docstring is not a call."""
        source = '''
            import time

            def stamp():
                """Not time.time(), and not hash(key)."""
                return "hash(key) time.time() set(x)"
            '''
        assert hits(det_hash, source) == 0
        assert hits(clock_wall, source) == 0
        assert hits(det_set_order, source) == 0

    def test_unknown_rule_name_is_a_finding_and_not_suppressible(self):
        """An allowlist exempts its own check only."""
        assert hits(det_hash, """
            def _call(self, payload):
                return hash(payload)
            """, CLIENT) == 1
        assert hits(clock_wall, "import time\nSTAMP = time.time()\n",
                    "src/repro/engine/context.py") == 1
        assert hits(clock_perf_counter, PERF_SNIPPET, "src/repro/engine/context.py") == 1


# ----------------------------------------------------------------------
# the tree walk and its report
# ----------------------------------------------------------------------
class TestBaseline:
    def test_checked_in_baseline_is_empty(self):
        """There is no baseline of accepted findings, and nothing else of
        the retired checker is left in the tree."""
        assert not (REPO_ROOT / "lint-baseline.json").exists()
        assert not (PACKAGE / "analysis").exists()
        for rel in ("pyproject.toml", "setup.py", "README.md", ".gitignore",
                    ".github/workflows/ci.yml"):
            text = (REPO_ROOT / rel).read_text(encoding="utf-8")
            assert LINTER not in text and "repro.analysis" not in text, rel

    def test_cli_baseline_round_trip(self, tree):
        """A seeded regression is reported at its line; reverting it leaves
        nothing behind."""
        rel = "src/repro/optimizer/dp.py"
        original = (tree / rel).read_text(encoding="utf-8")
        line = append(tree, rel, HASH_SNIPPET)
        assert violations(inv.det_hash, tree) == [f"{rel}:{line + 1}"]
        (tree / rel).write_text(original, encoding="utf-8")
        assert violations(inv.det_hash, tree) == []

    def test_fingerprint_ignores_line_number_but_not_text(self, tree):
        """The pipe-discipline exemption names a function, so it survives
        the function moving but not the function being renamed."""
        path = tree / CLIENT
        original = path.read_text(encoding="utf-8")
        path.write_text("# moved\n" * 7 + original, encoding="utf-8")
        assert violations(lock_blocking, tree) == []
        path.write_text(original.replace("def _call(", "def _call_once("), encoding="utf-8")
        found = violations(lock_blocking, tree)
        assert found and all(item.startswith(f"{CLIENT}:") for item in found)

    def test_split_consumes_entries(self):
        """Every clock allowlist glob lets through a clock read that would
        otherwise fail: a glob that exempts nothing is stale."""
        modules = src_modules()
        for globs, clocks in ((MONOTONIC_ALLOW, MONOTONIC_CLOCKS),
                              (PERF_COUNTER_ALLOW, PERF_CLOCKS)):
            for glob in globs:
                used = [module.path for module in modules
                        if fnmatch.fnmatch(module.path, glob)
                        and inv._clock_lines(module, clocks)]
                assert used, f"{glob!r} exempts no clock read"


class TestCli:
    def test_json_output_shape(self, tree):
        """A report is ``path:line`` per offending line: repo-relative posix
        paths, in path order."""
        second = append(tree, "src/repro/optimizer/dp.py", HASH_SNIPPET)
        first = append(tree, "src/repro/catalog/schema.py", HASH_SNIPPET + HASH_SNIPPET)
        assert violations(det_hash, tree) == [
            f"src/repro/catalog/schema.py:{first + 1}",
            f"src/repro/catalog/schema.py:{first + 3}",
            f"src/repro/optimizer/dp.py:{second + 1}",
        ]

    def test_list_rules(self):
        """Each check has its real-tree test, named after it."""
        assert len(CHECKS) == len({check.__name__ for check in CHECKS}) == 13
        for check in CHECKS:
            test = getattr(inv, f"test_{check.__name__}", None)
            assert callable(test), check.__name__

    def test_real_tree_is_clean(self):
        assert [item for check in CHECKS for item in violations(check)] == []

    def test_syntax_error_is_a_parse_error_finding(self, tree):
        """A file that does not parse fails the walk by name, instead of
        being skipped; every Python file of the repo parses."""
        broken = tree / "src/repro/optimizer/broken.py"
        broken.write_text("def broken(:\n    pass\n", encoding="utf-8")
        with pytest.raises(SyntaxError) as caught:
            src_modules(tree)
        assert caught.value.filename == "src/repro/optimizer/broken.py"
        for top in ("src", "tests", "benchmarks", "examples"):
            for path in sorted((REPO_ROOT / top).rglob("*.py")):
                ast.parse(path.read_bytes(), filename=str(path))

    def test_readme_invariants_name_existing_tests(self):
        """Every test the README's invariants table names exists: an id
        ``file.py::Class::test`` names each scope in turn, and a bare name
        after one names a sibling of its last part."""
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Invariants", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("|")][2:]
        assert rows
        for row in rows:
            path = None
            for name in re.findall(r"`([^`]+)`", row.split("|")[2]):
                assert path or "::" in name, row
                path = name.split("::") if "::" in name else path[:-1] + [name]
                assert _defines(path[0], path[1:]), "::".join(path)

    def test_readme_performance_contracts_name_tier1_tests(self):
        """Each contract under the README's "Performance" names a tier-1
        test by its node id, and every id it names exists."""
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Performance", 1)[1].split("\n## ", 1)[0]
        contracts = [part for part in section.split("\n\n") if part.startswith("**")]
        assert contracts
        for contract in contracts:
            ids = re.findall(r"`tests/(test_\w+\.py)((?:::\w+)+)`", contract)
            assert ids, contract.split("\n", 1)[0]
            for module, path in ids:
                assert _defines(module, path.split("::")[1:]), f"{module}{path}"


@functools.cache
def _test_module(name):
    """``tests/<name>``, parsed once."""
    return ast.parse((REPO_ROOT / "tests" / name).read_text(encoding="utf-8"))


def _defines(module, path):
    """Whether ``tests/<module>`` defines ``path[0]``, whose body defines
    ``path[1]``, and so on."""
    scopes = [_test_module(module)]
    for name in path:
        scopes = [node for scope in scopes for node in scope.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name]
    return bool(scopes)


# ----------------------------------------------------------------------
# the layer DAG, its exceptions, and the tool configuration
# ----------------------------------------------------------------------
class TestConfig:
    def test_cyclic_layer_table_rejected(self):
        with pytest.raises(graphlib.CycleError):
            graphlib.TopologicalSorter({**LAYERS, "storage": ("sql",)}).prepare()

    def test_undeclared_dependency_rejected(self):
        packages = set(LAYERS)
        assert layer_dag_problems({**LAYERS, "obs": ("tracing",)}, packages) == [
            "'obs' may import undeclared 'tracing'"
        ]
        assert layer_dag_problems(LAYERS, packages | {"newpkg"}) == [
            "package 'newpkg' has no entry in the layer DAG"
        ]

    def test_malformed_exception_edge_rejected(self):
        paths = [module.path for module in src_modules()]
        assert layer_exception_problems(LAYER_EXCEPTIONS, LAYERS, paths) == []
        malformed = {
            ("tooling", "engine.wire"): "not a package",
            ("engine", "executor.engine"): "already allowed",
            ("engine", "workloads.nowhere"): "missing module",
            ("engine", "workloads.base"): " ",
        }
        assert layer_exception_problems(malformed, LAYERS, paths) == [
            "'tooling' -> 'engine.wire': 'tooling' is not a layered package",
            "'engine' -> 'executor.engine': the DAG already allows it",
            "'engine' -> 'workloads.nowhere': no such module",
            "'engine' -> 'workloads.base': no reason given",
        ]

    def test_pyproject_table_matches_code_defaults(self):
        """``pyproject.toml`` configures ruff only, for the Python that
        ``setup.py`` requires."""
        with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
            config = tomllib.load(handle)
        assert set(config) == {"tool"} and set(config["tool"]) == {"ruff"}
        required = re.search(r'python_requires=">=(\d+)\.(\d+)"',
                             (REPO_ROOT / "setup.py").read_text(encoding="utf-8"))
        assert config["tool"]["ruff"]["target-version"] == "py" + "".join(required.groups())


# ----------------------------------------------------------------------
# the op table: a real client made to send an op the table lacks, or a
# handler no client sends, must be refused
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
# the layering fix the DAG keeps fixed (engine must not import repro.api)
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
