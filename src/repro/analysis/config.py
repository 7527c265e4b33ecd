"""Declarative configuration for ``repro-lint``: ``[tool.repro-lint]``.

Every knob a rule consults — the layer DAG, the clock allowlists, the
blocking-call vocabulary, the flow rules' call names — lives in ``pyproject.toml``
so the contracts are data, not code.  The built-in defaults below mirror
this repository's own table exactly; a fixture test can therefore run
rules against ``LintConfig()`` without touching the real pyproject.

Parsed with the stdlib :mod:`tomllib`, so the lint tool grows no
third-party dependency the package itself does not carry.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple


class LintConfigError(ValueError):
    """The [tool.repro-lint] table is malformed (bad layer DAG, types...)."""


#: The declared import-layer DAG: package under ``repro`` → packages it
#: may import.  Edges not listed (and not excepted) are violations.  The
#: table is validated to be acyclic at load time — that is what makes the
#: declaration a DAG rather than a wish.
DEFAULT_LAYERS: Dict[str, Tuple[str, ...]] = {
    "storage": (),
    "nn": (),
    # Observability primitives (stdlib+numpy only): import nothing from
    # repro, importable by the layers that emit telemetry.
    "obs": (),
    "catalog": ("storage",),
    "sql": ("catalog", "storage"),
    "optimizer": ("sql", "catalog", "storage"),
    "executor": ("optimizer", "sql", "catalog", "storage"),
    "engine": ("executor", "optimizer", "sql", "catalog", "storage", "obs"),
    "workloads": ("engine", "executor", "optimizer", "sql", "catalog", "storage"),
    "rl": ("nn",),
    "core": (
        "rl",
        "nn",
        "workloads",
        "engine",
        "executor",
        "optimizer",
        "sql",
        "catalog",
        "storage",
    ),
    "baselines": (
        "core",
        "rl",
        "nn",
        "workloads",
        "engine",
        "executor",
        "optimizer",
        "sql",
        "catalog",
        "storage",
    ),
    "api": (
        "baselines",
        "core",
        "rl",
        "nn",
        "workloads",
        "engine",
        "executor",
        "optimizer",
        "sql",
        "catalog",
        "storage",
        "obs",
    ),
    "experiments": (
        "api",
        "baselines",
        "core",
        "rl",
        "nn",
        "workloads",
        "engine",
        "executor",
        "optimizer",
        "sql",
        "catalog",
        "storage",
        "obs",
    ),
    # The linter itself depends on nothing above the stdlib.
    "analysis": (),
}

#: Module-targeted escape hatches through the DAG, each with a mandatory
#: reason.  An exception allows one package to import one specific module
#: (or its submodules) from a layer it could not otherwise touch.
DEFAULT_LAYER_EXCEPTIONS: Dict[str, str] = {
    "engine -> workloads.base": (
        "the repro-engine console entry point builds the workload it was "
        "asked to serve (lazy import in engine/remote/server.serve)"
    ),
}

DEFAULT_MONOTONIC_ALLOW: Tuple[str, ...] = (
    # The one sanctioned clock: MonotonicClock and RequestContext stamps.
    "src/repro/engine/context.py",
    # Span timestamps share the request-lifecycle clock.
    "src/repro/obs/*.py",
)

DEFAULT_PERF_COUNTER_ALLOW: Tuple[str, ...] = (
    # Profiling and latency-measurement code only; never deadline logic.
    "src/repro/nn/tensor.py",
    "src/repro/baselines/*.py",
    "src/repro/engine/database.py",
    "src/repro/core/inference.py",
    "src/repro/core/trainer.py",
    "src/repro/experiments/harness.py",
    "src/repro/obs/*.py",
)

DEFAULT_BLOCKING_CALLS: Tuple[str, ...] = (
    "recv",
    "recv_bytes",
    "send",
    "send_bytes",
    "accept",
    "round_trip",
    "read_frame",
    "join",
    "wait",
)

#: Blocking names that stop blocking indefinitely once given any
#: timeout argument (``thread.join(5)``, ``event.wait(timeout=...)``).
DEFAULT_TIMEOUT_EXEMPT: Tuple[str, ...] = ("join", "wait")

#: Batch entry points that take per-item deadline contexts; their
#: implementations must consult ``ctxs`` before reaching planning work.
DEFAULT_CTX_MANY_METHODS: Tuple[str, ...] = (
    "plan_many",
    "plan_with_hints_many",
    "execute_many",
    "begin_episode_many",
    "optimize_many",
)

#: Call names that count as "the planning/execution work happened" for
#: the ctx-propagation rule's all-paths check.
DEFAULT_CTX_WORK_CALLS: Tuple[str, ...] = (
    "plan",
    "plan_with_hints",
    "execute",
    "plan_many",
    "plan_with_hints_many",
    "execute_many",
    "_call",
    "optimize",
    "optimize_many",
)

#: Calls that mint a RequestContext; a minted context assigned to a
#: local must be used on every normal path out of the function.
DEFAULT_CTX_MINT_CALLS: Tuple[str, ...] = (
    "RequestContext.mint",
    "_mint_sync_ctx",
)

#: Only entry-point code is held to the mint-then-use contract.
DEFAULT_CTX_MINT_ROOTS: Tuple[str, ...] = ("src/repro/api",)

#: Acquisition call name → release method names accepted on the bound
#: variable (or a chain rooted at it, e.g. ``conn.lock.release()``).
#: Dotted keys match the callee's dotted-text suffix — the socket
#: ``_listener.accept`` without dragging in the SQL tokenizer's
#: unrelated ``self.accept``.
DEFAULT_RESOURCE_ACQUIRES: Dict[str, Tuple[str, ...]] = {
    "create_connection": ("close",),
    "makefile": ("close",),
    "Pipe": ("close",),
    "_listener.accept": ("close",),
    "_acquire": ("release", "drop", "close"),
}

DEFAULT_RNG_ALLOW: Tuple[str, ...] = (
    # Constructors of explicit generator objects; global-state functions
    # (random.random, numpy.random.rand, ...) are never allowed.
    "random.Random",
    "random.SystemRandom",
    "numpy.random.Generator",
    "numpy.random.default_rng",
    "numpy.random.SeedSequence",
    "numpy.random.BitGenerator",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "numpy.random.MT19937",
    "numpy.random.SFC64",
)


@dataclass
class LintConfig:
    """Everything ``[tool.repro-lint]`` can declare, with repo defaults."""

    # Contract rules apply only to files under these roots; the CLI can
    # still be pointed at tests/benchmarks (suppression hygiene applies
    # everywhere) without dragging bench timing code into clock rules.
    enforced_roots: Tuple[str, ...] = ("src/repro",)
    paths: Tuple[str, ...] = ("src", "tests", "benchmarks")
    baseline: str = "lint-baseline.json"
    layers: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_LAYERS)
    )
    layer_exceptions: Dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_LAYER_EXCEPTIONS)
    )
    monotonic_allow: Tuple[str, ...] = DEFAULT_MONOTONIC_ALLOW
    perf_counter_allow: Tuple[str, ...] = DEFAULT_PERF_COUNTER_ALLOW
    blocking_calls: Tuple[str, ...] = DEFAULT_BLOCKING_CALLS
    timeout_exempt: Tuple[str, ...] = DEFAULT_TIMEOUT_EXEMPT
    rng_allow: Tuple[str, ...] = DEFAULT_RNG_ALLOW
    ctx_many_methods: Tuple[str, ...] = DEFAULT_CTX_MANY_METHODS
    ctx_work_calls: Tuple[str, ...] = DEFAULT_CTX_WORK_CALLS
    ctx_mint_calls: Tuple[str, ...] = DEFAULT_CTX_MINT_CALLS
    ctx_mint_roots: Tuple[str, ...] = DEFAULT_CTX_MINT_ROOTS
    resource_acquires: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_RESOURCE_ACQUIRES)
    )

    def __post_init__(self) -> None:
        self._validate_layer_dag()
        for edge in self.layer_exceptions:
            if "->" not in edge:
                raise LintConfigError(
                    f"layer exception {edge!r} must look like 'pkg -> target.module'"
                )

    def _validate_layer_dag(self) -> None:
        """Reject a cyclic declaration — the layer table must be a DAG."""
        state: Dict[str, int] = {}  # 0 visiting, 1 done

        def visit(pkg: str, stack: List[str]) -> None:
            if state.get(pkg) == 1:
                return
            if state.get(pkg) == 0:
                cycle = " -> ".join(stack[stack.index(pkg):] + [pkg])
                raise LintConfigError(f"layer table is cyclic: {cycle}")
            state[pkg] = 0
            for dep in self.layers.get(pkg, ()):
                if dep not in self.layers:
                    raise LintConfigError(
                        f"layer {pkg!r} allows unknown layer {dep!r}"
                    )
                visit(dep, stack + [pkg])
            state[pkg] = 1

        for pkg in sorted(self.layers):
            visit(pkg, [])

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    @classmethod
    def from_pyproject(cls, path: Path) -> "LintConfig":
        raw = tomllib.loads(Path(path).read_text(encoding="utf-8"))
        table = raw.get("tool", {}).get("repro-lint", {})
        return cls.from_table(table)

    @classmethod
    def from_table(cls, table: Dict) -> "LintConfig":
        def strings(value, name: str) -> Tuple[str, ...]:
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise LintConfigError(f"{name} must be a list of strings")
            return tuple(value)

        kwargs: Dict = {}
        if "enforced-roots" in table:
            kwargs["enforced_roots"] = strings(table["enforced-roots"], "enforced-roots")
        if "paths" in table:
            kwargs["paths"] = strings(table["paths"], "paths")
        if "baseline" in table:
            kwargs["baseline"] = str(table["baseline"])
        if "layers" in table:
            layers = table["layers"]
            if not isinstance(layers, dict):
                raise LintConfigError("layers must be a table of package -> [deps]")
            kwargs["layers"] = {
                pkg: strings(deps, f"layers.{pkg}") for pkg, deps in layers.items()
            }
        if "layer-exceptions" in table:
            exceptions = table["layer-exceptions"]
            if not isinstance(exceptions, dict):
                raise LintConfigError(
                    "layer-exceptions must be a table of 'pkg -> module' -> reason"
                )
            kwargs["layer_exceptions"] = {
                str(edge): str(reason) for edge, reason in exceptions.items()
            }
        clock = table.get("clock", {})
        if "monotonic-allow" in clock:
            kwargs["monotonic_allow"] = strings(clock["monotonic-allow"], "clock.monotonic-allow")
        if "perf-counter-allow" in clock:
            kwargs["perf_counter_allow"] = strings(
                clock["perf-counter-allow"], "clock.perf-counter-allow"
            )
        concurrency = table.get("concurrency", {})
        if "blocking-calls" in concurrency:
            kwargs["blocking_calls"] = strings(
                concurrency["blocking-calls"], "concurrency.blocking-calls"
            )
        if "timeout-exempt" in concurrency:
            kwargs["timeout_exempt"] = strings(
                concurrency["timeout-exempt"], "concurrency.timeout-exempt"
            )
        determinism = table.get("determinism", {})
        if "rng-allow" in determinism:
            kwargs["rng_allow"] = strings(determinism["rng-allow"], "determinism.rng-allow")
        flow = table.get("flow", {})
        if "many-methods" in flow:
            kwargs["ctx_many_methods"] = strings(flow["many-methods"], "flow.many-methods")
        if "work-calls" in flow:
            kwargs["ctx_work_calls"] = strings(flow["work-calls"], "flow.work-calls")
        if "mint-calls" in flow:
            kwargs["ctx_mint_calls"] = strings(flow["mint-calls"], "flow.mint-calls")
        if "mint-roots" in flow:
            kwargs["ctx_mint_roots"] = strings(flow["mint-roots"], "flow.mint-roots")
        if "resources" in flow:
            resources = flow["resources"]
            if not isinstance(resources, dict):
                raise LintConfigError(
                    "flow.resources must map acquire name -> [release names]"
                )
            kwargs["resource_acquires"] = {
                str(name): strings(releases, f"flow.resources.{name}")
                for name, releases in resources.items()
            }
        return cls(**kwargs)


def find_pyproject(start: Path) -> Optional[Path]:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    current = Path(start).resolve()
    for candidate in [current, *current.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None
