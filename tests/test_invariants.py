"""Repository invariants, held by walking ``src/repro`` with stdlib ``ast``.

Twelve checks, one test each, over every module of the package (the
``hash()`` check also over the benches, the spine and the examples, and
the unused-import check also over the tests, the examples and the paper
benches):

* determinism — no builtin ``hash()`` (it is salted by ``PYTHONHASHSEED``;
  the repo's checksum is length-prefixed crc32, ``repro.engine.wire``), no
  draw from an interpreter-global RNG (only explicit, seeded generators),
  no iteration over a bare set (hash-salted order; wrap it in ``sorted()``);
* clocks — no wall clock anywhere (deadlines would jump with NTP steps);
  ``time.monotonic`` only where the one deadline clock lives
  (``engine/context.py``, shared by the span timestamps in ``obs``);
  ``perf_counter`` only in profiling and latency-measurement code;
* layering — every ``repro`` import, module level or lazy, follows the
  package DAG in :data:`LAYERS` or one of its named exceptions;
* concurrency — no unbounded blocking call while holding a lock, no cycle
  in a module's lock-acquisition graph, and no socket, stream, pipe or
  pooled connection that an exception or a return can leak.  A regression
  of these hangs or leaks without failing any behavioural test, so only
  the source can show it;
* dead code — no module-level import the module never reads (a package's
  ``__init__.py`` re-exports, so it is exempt);
* one forward — gradients are hand-written pullbacks returned by each
  module's one ``forward``: no class defines both a ``forward`` and an
  ``infer`` (a second composition of the same module), no ``backward`` is
  defined (an autograd op or a tape walk), and nothing imports the tests,
  where the tape lives on as their oracle.

Each check maps one parsed module to the lines that break it.
``tests/test_analysis.py`` (syntactic checks) and
``tests/test_analysis_flow.py`` (lock and resource checks) feed the same
checks the seeded regressions each one must catch, and the near misses it
must let through.  The allowlists and the DAG are literals here, and are
checked too: a glob that matches no file, a package missing from the DAG,
or a cycle in it fails.
"""

import ast
import fnmatch
import functools
import graphlib
import re
import textwrap
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"

#: Package under ``repro`` -> the packages it may import.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "storage": (),
    "nn": (),
    # Observability primitives (stdlib + numpy only), importable by the
    # layers that emit telemetry.
    "obs": (),
    "catalog": ("storage",),
    "sql": ("catalog", "storage"),
    "optimizer": ("sql", "catalog", "storage"),
    "executor": ("optimizer", "sql", "catalog", "storage"),
    "engine": ("executor", "optimizer", "sql", "catalog", "storage", "obs"),
    "workloads": ("engine", "executor", "optimizer", "sql", "catalog", "storage"),
    "rl": ("nn",),
    "core": ("rl", "nn", "workloads", "engine", "executor", "optimizer", "sql", "catalog",
             "storage"),
    "baselines": ("core", "rl", "nn", "workloads", "engine", "executor", "optimizer", "sql",
                  "catalog", "storage"),
    "api": ("baselines", "core", "rl", "nn", "workloads", "engine", "executor", "optimizer",
            "sql", "catalog", "storage", "obs"),
    "experiments": ("api", "baselines", "core", "rl", "nn", "workloads", "engine", "executor",
                    "optimizer", "sql", "catalog", "storage", "obs"),
}

#: (package, module it may import against :data:`LAYERS`) -> why.
LAYER_EXCEPTIONS: Dict[Tuple[str, str], str] = {
    ("engine", "workloads.base"): "the repro-engine console entry point builds the workload it "
    "was asked to serve (lazy import in engine/remote/server.serve)",
}

#: The sanctioned monotonic clock (MonotonicClock / RequestContext stamps);
#: span timestamps share it.
MONOTONIC_ALLOW = ("src/repro/engine/context.py", "src/repro/obs/*.py")

#: Profiling and latency-measurement code only; never deadline logic.
PERF_COUNTER_ALLOW = (
    "src/repro/baselines/*.py",
    "src/repro/engine/database.py",
    "src/repro/core/inference.py",
    "src/repro/core/trainer.py",
    "src/repro/experiments/harness.py",
)

#: Constructors of explicit generator objects; global-state functions
#: (``random.random``, ``numpy.random.rand``, ...) are never allowed.
RNG_ALLOW = frozenset({
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
})

#: Calls that may block without bound; ``join``/``wait`` take only a
#: timeout, so any argument bounds them.
BLOCKING_CALLS = frozenset({
    "recv", "recv_bytes", "send", "send_bytes", "accept", "round_trip", "read_frame", "join",
    "wait",
})
TIMEOUT_BOUNDED = frozenset({"join", "wait"})

#: (path, function) that blocks holding a lock by design -> why.
LOCK_BLOCKING_ALLOW: Dict[Tuple[str, str], str] = {
    ("src/repro/engine/remote/client.py", "_call"): "pipe discipline: the connection lock "
    "spans one framed send->recv so tenants never interleave bytes; the socket timeout "
    "bounds the wait",
}

#: Call that acquires a resource -> the methods that release it.  A dotted
#: key matches the end of the callee's dotted name (the server's
#: ``_listener.accept``, not the SQL parser's ``self.accept``).
RESOURCES: Dict[str, Tuple[str, ...]] = {
    "create_connection": ("close",),
    "makefile": ("close",),
    "Pipe": ("close",),
    "_listener.accept": ("close",),
    "_acquire": ("release", "drop", "close"),
}
#: Collection methods that take ownership of their argument.
TRANSFER_METHODS = frozenset({
    "append", "add", "insert", "extend", "put", "put_nowait", "register", "setdefault",
})

WALL_CLOCKS = frozenset({
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})
MONOTONIC_CLOCKS = frozenset({"time.monotonic", "time.monotonic_ns"})
PERF_CLOCKS = frozenset({"time.perf_counter", "time.perf_counter_ns"})


class Module:
    """One parsed file: its repo-relative posix path, AST and import table.

    ``imports`` maps each local name to the dotted name it was imported as
    (``np`` -> ``numpy``, ``monotonic`` -> ``time.monotonic``), so a chain
    resolves to the same target however the file aliased it.
    """

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.tree = ast.parse(source, filename=path)
        self.imports: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    self.imports[alias.asname or root] = alias.name if alias.asname else root
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    if alias.name != "*":
                        self.imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """The dotted target of a Name/Attribute chain rooted in an import."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name) or node.id not in self.imports:
            return None
        parts.append(self.imports[node.id])
        return ".".join(reversed(parts))


@functools.cache
def parse(path: str, source: str) -> Module:
    """One parse per (path, text): a copy of the tree re-parses only what it edited."""
    return Module(path, source)


def src_modules(root: Path = REPO_ROOT) -> Tuple[Module, ...]:
    """Every module under ``root/src/repro``, in path order."""
    return tuple(
        parse(path.relative_to(root).as_posix(), path.read_text(encoding="utf-8"))
        for path in sorted((root / "src" / "repro").rglob("*.py"))
    )


#: The scripts outside the package whose output must not vary by process:
#: paper benches, the spine benchmark and the examples.
SCRIPT_GLOBS = ("benchmarks/*.py", "benchmarks/spine/**/*.py", "examples/*.py")


#: The modules outside the package whose imports must all be read: the
#: tests, the examples and the paper benches.
IMPORT_GLOBS = ("tests/*.py", "examples/*.py", "benchmarks/*.py")


def script_modules(root: Path = REPO_ROOT, globs: Tuple[str, ...] = SCRIPT_GLOBS) -> Tuple[Module, ...]:
    """Every module matched by ``globs`` under ``root``, in path order."""
    paths = sorted({path for glob in globs for path in root.glob(glob)})
    return tuple(
        parse(path.relative_to(root).as_posix(), path.read_text(encoding="utf-8"))
        for path in paths
    )


def violations(check, root: Path = REPO_ROOT, modules=src_modules) -> List[str]:
    """``path:line`` of every line of ``modules(root)`` (by default, every
    module under ``root/src/repro``) that ``check`` flags."""
    return [f"{module.path}:{line}" for module in modules(root) for line in check(module)]


def hits(check, source: str, path: str = "src/repro/optimizer/_fixture.py") -> int:
    """How many lines of one snippet, placed at ``path``, ``check`` flags."""
    return len(check(Module(path, textwrap.dedent(source))))


def _module_scope(tree: ast.AST) -> Iterator[ast.AST]:
    """Every node that runs at import time (function bodies excluded)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(
            child for child in ast.iter_child_nodes(node)
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        )


# ----------------------------------------------------------------------
# the checks: module -> offending line numbers
# ----------------------------------------------------------------------
def det_hash(module: Module) -> List[int]:
    if "hash" in module.imports:
        return []  # the name is rebound to something explicit
    return [
        node.lineno for node in ast.walk(module.tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "hash"
    ]


def det_unseeded_random(module: Module) -> List[int]:
    lines = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            target = module.resolve(node.func)
            if target and target.startswith(("random.", "numpy.random.")) \
                    and target not in RNG_ALLOW:
                lines.append(node.lineno)
    # A module-level default_rng() with no seed is a process-global
    # unseeded generator by another name.
    for node in _module_scope(module.tree):
        if isinstance(node, ast.Call) and not node.args and not node.keywords \
                and module.resolve(node.func) == "numpy.random.default_rng":
            lines.append(node.lineno)
    return sorted(lines)


def det_set_order(module: Module) -> List[int]:
    iterables = []
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterables.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iterables.extend(generator.iter for generator in node.generators)
    return [
        iterable.lineno for iterable in iterables
        if isinstance(iterable, ast.Set)
        or (isinstance(iterable, ast.Call) and isinstance(iterable.func, ast.Name)
            and iterable.func.id in ("set", "frozenset") and "set" not in module.imports)
    ]


def _clock_lines(module: Module, clocks: frozenset) -> List[int]:
    """References, not only calls: ``default_factory=time.time`` counts too."""
    inner = {id(node.value) for node in ast.walk(module.tree) if isinstance(node, ast.Attribute)}
    return [
        node.lineno for node in ast.walk(module.tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in inner
        and module.resolve(node) in clocks
    ]


def _allowed(path: str, globs: Tuple[str, ...]) -> bool:
    return any(fnmatch.fnmatch(path, glob) for glob in globs)


def clock_wall(module: Module) -> List[int]:
    return _clock_lines(module, WALL_CLOCKS)


def clock_monotonic(module: Module) -> List[int]:
    return [] if _allowed(module.path, MONOTONIC_ALLOW) else _clock_lines(module, MONOTONIC_CLOCKS)


def clock_perf_counter(module: Module) -> List[int]:
    return [] if _allowed(module.path, PERF_COUNTER_ALLOW) else _clock_lines(module, PERF_CLOCKS)


def _repro_imports(module: Module, package: List[str]) -> Iterator[Tuple[int, str]]:
    """``(line, target under repro)`` for every import of a repro module."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro."):
                    yield node.lineno, alias.name[len("repro."):]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                source = ".".join(base + ([node.module] if node.module else []))
            else:
                source = node.module or ""
            if source == "repro" or source.startswith("repro."):
                for alias in node.names:
                    yield node.lineno, f"{source}.{alias.name}"[len("repro."):]


def module_name(path: str) -> str:
    """``src/repro/engine/remote/client.py`` -> ``repro.engine.remote.client``;
    a package's ``__init__.py`` is the package itself."""
    name = path[len("src/"): -len(".py")].replace("/", ".")
    return name[: -len(".__init__")] if name.endswith(".__init__") else name


def layer_import(module: Module) -> List[int]:
    if "/" not in module.path[len("src/repro/"):]:
        return []  # the top of the stack (repro/__init__.py) may import anything
    parts = module_name(module.path).split(".")
    # The package a relative import starts from.
    package = parts if module.path.endswith("/__init__.py") else parts[:-1]
    own = parts[1]
    allowed = LAYERS.get(own)
    if allowed is None:
        return [1]  # every layered package must state what it may import
    lines = []
    for line, target in _repro_imports(module, package):
        target_package = target.split(".")[0]
        if target_package == own or target_package in allowed:
            continue
        if any(
            source == own and (target == exempt or target.startswith(exempt + "."))
            for source, exempt in LAYER_EXCEPTIONS
        ):
            continue
        lines.append(line)
    return lines


def _lockish(expr: ast.AST) -> bool:
    text = ast.unparse(expr).lower()
    return "lock" in text or "mutex" in text or "semaphore" in text


def _lock_name(expr: ast.AST, cls: Optional[str]) -> str:
    """``self._pool[i].lock`` in ``RemoteBackend`` -> ``RemoteBackend._pool.lock``:
    every instance of a class, and every lock of a pool, is one lock."""
    text = re.sub(r"\[[^\[\]]*\]", "", ast.unparse(expr))
    return f"{cls}.{text[len('self.'):]}" if cls and text.startswith("self.") else text


def _lock_summary(func: ast.AST, cls: Optional[str]):
    """``(locks func takes, (held, taken, line) edges, (held, callee, line) calls)``.

    A callee is a method of the same class called on ``self`` or a
    function of the same module called by name.  Only ``with`` takes a
    lock here: the one bare blocking ``acquire()`` in the tree is the
    connection pool's hand-off (``RemoteBackend._acquire``), released by
    its caller's ``finally``.
    """
    takes, edges, calls = set(), [], []

    def visit(node: ast.AST, held: List[str]) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = list(held)
            for item in node.items:
                visit(item.context_expr, inner)
                if _lockish(item.context_expr):
                    name = _lock_name(item.context_expr, cls)
                    takes.add(name)
                    edges.extend((holder, name, node.lineno) for holder in inner if holder != name)
                    inner.append(name)
            for stmt in node.body:
                visit(stmt, inner)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            return  # runs later, under whatever its caller holds
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                calls.append((tuple(held), (None, func.id), node.lineno))
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                    and func.value.id == "self":
                calls.append((tuple(held), (cls, func.attr), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    for stmt in func.body:
        visit(stmt, [])
    return takes, edges, calls


def lock_order(module: Module) -> List[int]:
    """The lines of a cycle in the module's lock-acquisition graph.

    An edge ``A -> B`` is a ``with B`` nested in ``with A``, or a call made
    holding ``A`` to a function that (transitively) takes ``B``.  Two
    threads walking a cycle's edges from different ends deadlock.
    """
    summaries, bases = {}, {}
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summaries[(None, node.name)] = _lock_summary(node, None)
        elif isinstance(node, ast.ClassDef):
            bases[node.name] = [base.id for base in node.bases if isinstance(base, ast.Name)]
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    summaries[(node.name, child.name)] = _lock_summary(child, node.name)

    def resolve(callee):
        """``Class()`` runs ``Class.__init__``; ``self.m()`` may be a base's ``m``."""
        cls, name = callee
        if cls is None and name in bases:
            cls, name = name, "__init__"
        owners = [cls] if cls is not None else []
        while owners:
            owner = owners.pop(0)
            if (owner, name) in summaries:
                return owner, name
            owners.extend(bases.get(owner, ()))
        return callee

    summaries = {
        key: (takes, edges, [(held, resolve(callee), line) for held, callee, line in calls])
        for key, (takes, edges, calls) in summaries.items()
    }
    takes = {key: set(summary[0]) for key, summary in summaries.items()}
    changed = True
    while changed:
        changed = False
        for key, (_takes, _edges, calls) in summaries.items():
            for _held, callee, _line in calls:
                extra = takes.get(callee, set()) - takes[key]
                if extra:
                    takes[key] |= extra
                    changed = True
    sites: Dict[Tuple[str, str], int] = {}
    for _takes, edges, calls in summaries.values():
        for holder, name, line in edges:
            sites.setdefault((holder, name), line)
        for held, callee, line in calls:
            for name in takes.get(callee, ()):
                for holder in held:
                    if holder != name:
                        sites.setdefault((holder, name), line)
    predecessors: Dict[str, set] = {}
    for holder, name in sites:
        predecessors.setdefault(name, set()).add(holder)
    try:
        graphlib.TopologicalSorter(predecessors).prepare()
    except graphlib.CycleError as exc:
        cycle = exc.args[1]
        return sorted(sites[pair] for pair in zip(cycle, cycle[1:]))
    return []


def _call_name(call: ast.Call) -> Optional[str]:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _acquires(stmt: ast.AST) -> bool:
    return any(isinstance(node, ast.Call) and "acquire" in (_call_name(node) or "")
               for node in ast.walk(stmt))


def lock_blocking(module: Module) -> List[int]:
    """Unbounded blocking calls made holding a lock: inside ``with <lock>:``,
    or inside a ``try`` entered just after an ``acquire`` (the
    ``acquire(); try: ... finally: release()`` shape)."""
    lines = []

    def visit(node: ast.AST, held: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            return  # checked as a function of its own
        if isinstance(node, (ast.With, ast.AsyncWith)) \
                and any(_lockish(item.context_expr) for item in node.items):
            held = True
        if isinstance(node, ast.Call) and held and _call_name(node) in BLOCKING_CALLS \
                and not (_call_name(node) in TIMEOUT_BOUNDED and (node.args or node.keywords)):
            lines.append(node.lineno)
        visit_children(node, held)

    def visit_children(node: ast.AST, held: bool) -> None:
        for _field, value in ast.iter_fields(node):
            children = value if isinstance(value, list) else [value]
            for index, child in enumerate(children):
                if isinstance(child, ast.AST):
                    after_acquire = isinstance(child, ast.Try) and any(
                        _acquires(previous) for previous in children[max(0, index - 3):index]
                    )
                    visit(child, held or after_acquire)

    for func in ast.walk(module.tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and (module.path, func.name) not in LOCK_BLOCKING_ALLOW:
            visit_children(func, False)
    return sorted(lines)


def _rooted_at(node: ast.AST, var: str) -> bool:
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id == var


def _releases(node: ast.AST, var: str, releases: Tuple[str, ...]) -> bool:
    """``var.close()``, ``var.lock.release()``, ... anywhere inside ``node``."""
    return any(
        isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and call.func.attr in releases and _rooted_at(call.func.value, var)
        for call in ast.walk(node)
    )


def _holds(node: ast.AST, var: str) -> bool:
    return isinstance(node, ast.Name) and node.id == var or isinstance(
        node, (ast.Tuple, ast.List, ast.Set)) and any(_holds(elt, var) for elt in node.elts)


def _hands_off(stmt: ast.stmt, var: str, releases: Tuple[str, ...]) -> bool:
    """A simple statement that releases ``var`` or gives it an owner: a
    store or ``return``, a container literal passed to a call
    (``Thread(args=(sock,))``) or a collection taking it (``conns.append``)."""
    if not isinstance(stmt, (ast.Expr, ast.Assign, ast.Return)):
        return False
    if isinstance(stmt, ast.Expr) and _releases(stmt, var, releases):
        return True
    if isinstance(stmt, (ast.Assign, ast.Return)) and stmt.value is not None \
            and _holds(stmt.value, var):
        return True
    for call in ast.walk(stmt):
        if isinstance(call, ast.Call):
            args = [*call.args, *(keyword.value for keyword in call.keywords)]
            if any(isinstance(arg, (ast.Tuple, ast.List, ast.Set)) and _holds(arg, var)
                   for arg in args):
                return True
            if isinstance(call.func, ast.Attribute) and call.func.attr in TRANSFER_METHODS \
                    and any(_holds(arg, var) for arg in args):
                return True
    return False


def _can_raise(node: ast.AST) -> bool:
    if not isinstance(node, (ast.expr, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr,
                             ast.Pass)):
        return True  # a loop or try: more paths than this walk follows
    return any(isinstance(sub, (ast.Call, ast.Return, ast.Raise, ast.Yield, ast.YieldFrom,
                                ast.Await)) for sub in ast.walk(node))


def _handed_off(stmts: List[ast.stmt], var: str, releases: Tuple[str, ...]) -> bool:
    """Every path through ``stmts`` releases or hands off ``var`` before
    anything can raise or return."""
    for index, stmt in enumerate(stmts):
        rest = stmts[index + 1:]
        if isinstance(stmt, ast.If) and not _can_raise(stmt.test):
            return _handed_off(stmt.body + rest, var, releases) \
                and _handed_off(stmt.orelse + rest, var, releases)
        if isinstance(stmt, ast.With):
            if any(_holds(item.context_expr, var) for item in stmt.items):
                return True  # the context manager releases it
            if not any(_can_raise(item.context_expr) for item in stmt.items):
                return _handed_off(stmt.body + rest, var, releases)
        if _hands_off(stmt, var, releases):
            return True
        if _can_raise(stmt):
            return False
    return False


def _statements(block: List[ast.stmt], chain=()):
    """Each statement with its ``(block, index)`` chain from the function
    body inward; nested functions and classes are not entered."""
    for index, stmt in enumerate(block):
        here = (*chain, (block, index))
        yield stmt, here
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        inner = [getattr(stmt, field) for field in ("body", "orelse", "finalbody")
                 if isinstance(getattr(stmt, field, None), list)]
        for nested in inner + [handler.body for handler in getattr(stmt, "handlers", ())]:
            yield from _statements(nested, here)


def _acquired(stmt: ast.stmt) -> List[Tuple[str, Tuple[str, ...]]]:
    """``(variable, release methods)`` for each resource ``stmt`` acquires;
    ``_``-prefixed tuple targets are unused by convention."""
    if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
            and isinstance(stmt.value, ast.Call)):
        return []
    dotted = ast.unparse(stmt.value.func)
    for key, releases in RESOURCES.items():
        if dotted == key or dotted.endswith("." + key):
            target = stmt.targets[0]
            names = [target] if isinstance(target, ast.Name) else getattr(target, "elts", [])
            return [(name.id, releases) for name in names
                    if isinstance(name, ast.Name) and not name.id.startswith("_")]
    return []


def resource_release(module: Module) -> List[int]:
    """Resources that can leak: each must be released by a ``finally`` it
    is acquired under, or by the handlers or ``finally`` of a ``try``
    right after it, or be released or handed off before anything that can
    raise or return."""
    lines = []
    for func in ast.walk(module.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt, chain in _statements(func.body):
            for var, releases in _acquired(stmt):
                in_finally = any(
                    isinstance(block[index], ast.Try) and inner is block[index].body
                    and any(_releases(final, var, releases) for final in block[index].finalbody)
                    for (block, index), (inner, _) in zip(chain, chain[1:])
                )
                block, index = chain[-1]
                following = block[index + 1:]
                guarded = bool(following) and isinstance(following[0], ast.Try) and any(
                    _releases(cleanup, var, releases)
                    for cleanup in [*following[0].handlers, *following[0].finalbody]
                )
                rest = [later for block, index in reversed(chain) for later in block[index + 1:]]
                if not (in_finally or guarded or _handed_off(rest, var, releases)):
                    lines.append(stmt.lineno)
    return lines


#: The names a package module would import the tests by: the directory
#: and every module in it (pytest puts ``tests/`` itself on ``sys.path``).
TEST_MODULES = frozenset({"tests"} | {path.stem for path in (REPO_ROOT / "tests").glob("*.py")})


def one_forward(module: Module) -> List[int]:
    """Classes with both ``forward`` and ``infer``, every ``def backward``,
    and every import of the tests."""
    lines = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            methods = {item.name for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
            if {"forward", "infer"} <= methods:
                lines.append(node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "backward":
            lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            lines += [node.lineno for alias in node.names if alias.name.split(".")[0] in TEST_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] in TEST_MODULES:
                lines.append(node.lineno)
    return sorted(lines)


def import_checked_scripts(root: Path = REPO_ROOT) -> Tuple[Module, ...]:
    """The modules matched by :data:`IMPORT_GLOBS` under ``root``."""
    return script_modules(root, IMPORT_GLOBS)


def unused_import(module: Module) -> List[int]:
    """Imports run at import time whose name the module never reads.

    A name counts as read by any ``Name`` node, a quoted annotation or an
    ``__all__`` entry.  A package's ``__init__.py`` is exempt: its imports
    are its re-exports.
    """
    if module.path.endswith("/__init__.py"):
        return []
    read = {node.id for node in ast.walk(module.tree) if isinstance(node, ast.Name)}
    annotations = [
        node.annotation for node in ast.walk(module.tree)
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None
    ] + [
        node.returns for node in ast.walk(module.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None
    ] + [
        node.value for node in module.tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
    ]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= {
                    name.id for name in ast.walk(ast.parse(node.value, mode="eval"))
                    if isinstance(name, ast.Name)
                }
    return [
        node.lineno for node in _module_scope(module.tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in read
    ]


# ----------------------------------------------------------------------
# the real tree holds every invariant
# ----------------------------------------------------------------------
#: Every check, in the order the module docstring lists them.
CHECKS = (
    det_hash, det_unseeded_random, det_set_order, clock_wall, clock_monotonic,
    clock_perf_counter, layer_import, lock_blocking, lock_order, resource_release,
    unused_import, one_forward,
)


def test_det_hash():
    assert violations(det_hash) == []
    assert violations(det_hash, modules=script_modules) == []


def test_det_unseeded_random():
    assert violations(det_unseeded_random) == []


def test_det_set_order():
    assert violations(det_set_order) == []


def test_clock_wall():
    assert violations(clock_wall) == []


def test_clock_monotonic():
    assert violations(clock_monotonic) == []


def test_clock_perf_counter():
    assert violations(clock_perf_counter) == []


def test_layer_import():
    assert violations(layer_import) == []


def test_lock_blocking():
    assert violations(lock_blocking) == []


def test_lock_order():
    assert violations(lock_order) == []


def test_resource_release():
    assert violations(resource_release) == []


def test_unused_import():
    assert violations(unused_import) == []
    assert violations(unused_import, modules=import_checked_scripts) == []


def test_one_forward():
    assert violations(one_forward) == []


# ----------------------------------------------------------------------
# the literals above stay true to the tree
# ----------------------------------------------------------------------
def layer_dag_problems(layers: Dict[str, Tuple[str, ...]], packages: set) -> List[str]:
    """Packages the DAG misses or invents, and dependencies it never declares."""
    problems = [f"package {name!r} has no entry in the layer DAG"
                for name in sorted(packages - set(layers))]
    problems += [f"{name!r} is in the layer DAG but is not a package"
                 for name in sorted(set(layers) - packages)]
    problems += [f"{name!r} may import undeclared {target!r}"
                 for name, allowed in layers.items() for target in allowed if target not in layers]
    return problems


def layer_exception_problems(exceptions: Dict[Tuple[str, str], str],
                             layers: Dict[str, Tuple[str, ...]], paths: List[str]) -> List[str]:
    """An exception must leave a layered package for one existing module the
    DAG forbids it, and say why."""
    problems = []
    for (source, target), reason in exceptions.items():
        module = "src/repro/" + target.replace(".", "/")
        if source not in layers:
            problems.append(f"{source!r} -> {target!r}: {source!r} is not a layered package")
        elif target.split(".")[0] in (source, *layers[source]):
            problems.append(f"{source!r} -> {target!r}: the DAG already allows it")
        if f"{module}.py" not in paths and f"{module}/__init__.py" not in paths:
            problems.append(f"{source!r} -> {target!r}: no such module")
        if not reason.strip():
            problems.append(f"{source!r} -> {target!r}: no reason given")
    return problems


def test_allowlists_match_files():
    paths = [module.path for module in src_modules()]
    for glob in MONOTONIC_ALLOW + PERF_COUNTER_ALLOW:
        assert fnmatch.filter(paths, glob), f"allowlist glob {glob!r} matches no file"
    assert layer_exception_problems(LAYER_EXCEPTIONS, LAYERS, paths) == []
    functions = {
        (module.path, node.name) for module in src_modules() for node in ast.walk(module.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert set(LOCK_BLOCKING_ALLOW) <= functions


def test_every_package_is_in_the_layer_dag():
    packages = {path.parent.name for path in PACKAGE.glob("*/__init__.py")}
    assert layer_dag_problems(LAYERS, packages) == []


def test_layer_dag_is_acyclic():
    graphlib.TopologicalSorter(LAYERS).prepare()  # raises CycleError
