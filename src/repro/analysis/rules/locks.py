"""Flow rule ``lock-order``: the global lock-acquisition graph is acyclic.

Deadlock by lock-order inversion needs two parties taking the same two
locks in opposite orders.  This rule builds the *global* acquisition
graph — an edge ``A → B`` whenever some code path blocks on ``B`` while
holding ``A`` — and reports every cycle of two or more distinct locks
as a potential deadlock, anchored at one acquisition site of the cycle.

Edges come from two sources:

* lexical nesting — a blocking acquisition (``with <lock>:`` or a bare
  ``.acquire()``) inside a region that already holds another lock;
* calls under lock — a call made while holding ``A`` to a function the
  :mod:`~repro.analysis.callgraph` can resolve contributes an edge to
  every lock that callee (transitively) acquires.

Lock identity is the canonicalised attribute chain with subscripts
erased (``self._pool[i].lock`` → ``RemoteBackend._pool.lock``) so a
pool of per-connection locks is one node.  Soundness caveats, by
design and documented: **unknown callees are assumed to acquire
nothing** (the call graph keeps them as explicit unknown nodes but this
rule does not invent edges for them), **bounded acquisitions**
(``blocking=False`` / any ``timeout``) generate no edges because they
fail instead of deadlocking, and **self-edges are ignored** because the
repo's reentrant locks (``RLock``) and any loop over a pool of locks
legitimately re-enter one identity.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, FunctionInfo
from repro.analysis.core import Finding, Project
from repro.analysis.registry import PROJECT_SCOPE, rule
from repro.analysis.rules.concurrency import _is_lockish

_SUBSCRIPT_RE = re.compile(r"\[[^\[\]]*\]")


def _strip_subscripts(text: str) -> str:
    # Repeated to collapse nested subscripts too.
    while True:
        stripped = _SUBSCRIPT_RE.sub("", text)
        if stripped == text:
            return stripped
        text = stripped


def lock_identity(
    expr: ast.AST, info: FunctionInfo, env: Dict[str, str]
) -> Optional[str]:
    """Canonical name for a lock expression, or ``None`` if unprintable."""
    if isinstance(expr, ast.Name) and expr.id in env:
        return env[expr.id]
    try:
        text = ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return None
    text = _strip_subscripts(text)
    if text.startswith("self.") and info.cls is not None:
        short = info.cls.rsplit(".", 1)[-1]
        return f"{short}.{text[len('self.'):]}"
    return text


def _is_bounded(call: ast.Call) -> bool:
    """``acquire(blocking=False)`` / ``acquire(timeout=...)`` cannot deadlock."""
    for kw in call.keywords:
        if kw.arg == "timeout":
            return True
        if kw.arg == "blocking" and not (
            isinstance(kw.value, ast.Constant) and kw.value.value is True
        ):
            return True
    if call.args:
        first = call.args[0]
        # Positional form: acquire(False) / acquire(True, timeout).
        if isinstance(first, ast.Constant) and first.value is False:
            return True
        if len(call.args) > 1:
            return True
    return False


def _acquire_call(stmt: ast.stmt) -> Optional[ast.Call]:
    """The blocking ``<expr>.acquire(...)`` call of a simple statement."""
    value = None
    if isinstance(stmt, ast.Expr):
        value = stmt.value
    elif isinstance(stmt, ast.Assign):
        value = stmt.value
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr == "acquire"
        and not _is_bounded(value)
    ):
        return value
    return None


def _release_identity(
    stmt: ast.stmt, info: FunctionInfo, env: Dict[str, str]
) -> Optional[str]:
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        func = stmt.value.func
        if isinstance(func, ast.Attribute) and func.attr == "release":
            return lock_identity(func.value, info, env)
    return None


class _Summary:
    """Per-function facts the interprocedural pass combines."""

    def __init__(self) -> None:
        #: Every blocking lock identity this function acquires directly.
        self.acquires: Set[str] = set()
        #: (held identities, acquired identity, line) — lexical edges.
        self.edges: List[Tuple[Tuple[str, ...], str, int]] = []
        #: (held identities, callee qualname, line) for resolved calls.
        self.calls_under_lock: List[Tuple[Tuple[str, ...], str, int]] = []


def _calls_in(stmt: ast.stmt) -> Iterator[ast.Call]:
    for node in ast.walk(stmt):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # nested defs are summarised separately
        if isinstance(node, ast.Call):
            yield node


def _summarise(info: FunctionInfo, graph: CallGraph) -> _Summary:
    summary = _Summary()
    resolved_by_line: Dict[int, List[str]] = {}
    for site in graph.callees(info.qualname):
        if not site.unknown:
            resolved_by_line.setdefault(site.line, []).append(site.callee)

    def record_calls(stmt: ast.stmt, held: List[str]) -> None:
        if not held:
            return
        for call in _calls_in(stmt):
            for callee in resolved_by_line.get(call.lineno, ()):
                summary.calls_under_lock.append((tuple(held), callee, call.lineno))

    def acquire(identity: str, held: List[str], line: int) -> None:
        summary.acquires.add(identity)
        for holder in held:
            if holder != identity:
                summary.edges.append(((holder,), identity, line))

    def walk(stmts: List[ast.stmt], held: List[str], env: Dict[str, str]) -> List[str]:
        held = list(held)
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = list(held)
                for item in stmt.items:
                    if _is_lockish(item.context_expr):
                        identity = lock_identity(item.context_expr, info, env)
                        if identity is not None:
                            acquire(identity, inner, stmt.lineno)
                            inner.append(identity)
                record_calls(stmt, held)  # the with-header itself
                walk(stmt.body, inner, dict(env))
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                loop_env = dict(env)
                if isinstance(stmt.target, ast.Name) and _is_lockish(stmt.iter):
                    iter_identity = lock_identity(stmt.iter, info, env)
                    if iter_identity is not None:
                        loop_env[stmt.target.id] = iter_identity
                record_calls(stmt, held)
                # One symbolic iteration; acquisitions persist past the
                # loop (a loop may acquire every lock of a pool, then
                # enter its guarded try).
                held = walk(stmt.body, held, loop_env)
                walk(stmt.orelse, held, loop_env)
                continue
            if isinstance(stmt, ast.While):
                record_calls(stmt, held)
                held = walk(stmt.body, held, dict(env))
                walk(stmt.orelse, held, dict(env))
                continue
            if isinstance(stmt, ast.If):
                record_calls(stmt, held)
                then_held = walk(stmt.body, held, dict(env))
                else_held = walk(stmt.orelse, held, dict(env))
                # Union is conservative for edge generation.
                held = list(dict.fromkeys(then_held + else_held))
                continue
            if isinstance(stmt, ast.Try):
                held = walk(stmt.body, held, dict(env))
                for handler in stmt.handlers:
                    walk(handler.body, held, dict(env))
                held = walk(stmt.orelse, held, dict(env))
                held = walk(stmt.finalbody, held, dict(env))
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            call = _acquire_call(stmt)
            if call is not None:
                identity = lock_identity(call.func.value, info, env)
                if identity is not None:
                    acquire(identity, held, stmt.lineno)
                    if identity not in held:
                        held.append(identity)
                continue
            released = _release_identity(stmt, info, env)
            if released is not None and released in held:
                held.remove(released)
                continue
            record_calls(stmt, held)
        return held

    walk(list(info.node.body), [], {})
    return summary


def _transitive_acquires(
    summaries: Dict[str, _Summary], graph: CallGraph
) -> Dict[str, Set[str]]:
    """Locks each function may take, directly or via resolved callees."""
    trans = {qual: set(s.acquires) for qual, s in summaries.items()}
    changed = True
    while changed:
        changed = False
        for qual in summaries:
            for site in graph.callees(qual):
                if site.unknown or site.callee not in trans:
                    continue
                extra = trans[site.callee] - trans[qual]
                if extra:
                    trans[qual] |= extra
                    changed = True
    return trans


def _cycles(adjacency: Dict[str, Set[str]]) -> List[List[str]]:
    """Strongly connected components with >= 2 nodes (Tarjan, iterative)."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(adjacency.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in adjacency:
                    continue
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(adjacency.get(child, ())))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))

    for node in sorted(adjacency):
        if node not in index:
            strongconnect(node)
    return sccs


@rule(
    "lock-order",
    scope=PROJECT_SCOPE,
    contract="the global lock-acquisition graph has no cross-lock cycle "
    "(potential deadlock)",
)
def check_lock_order(project: Project) -> Iterator[Finding]:
    graph = CallGraph.build(project)
    summaries = {
        qual: _summarise(info, graph) for qual, info in sorted(graph.functions.items())
    }
    if not summaries:
        return
    trans = _transitive_acquires(summaries, graph)

    adjacency: Dict[str, Set[str]] = {}
    sites: Dict[Tuple[str, str], Tuple[str, int, str]] = {}  # edge -> (path, line, why)
    for qual in sorted(summaries):
        summary = summaries[qual]
        info = graph.functions[qual]
        for held, acquired, line in summary.edges:
            for holder in held:
                adjacency.setdefault(holder, set()).add(acquired)
                adjacency.setdefault(acquired, set())
                sites.setdefault(
                    (holder, acquired), (info.sf.path, line, f"acquired in {qual}")
                )
        for held, callee, line in summary.calls_under_lock:
            for acquired in sorted(trans.get(callee, ())):
                for holder in held:
                    if holder == acquired:
                        continue
                    adjacency.setdefault(holder, set()).add(acquired)
                    adjacency.setdefault(acquired, set())
                    sites.setdefault(
                        (holder, acquired),
                        (info.sf.path, line, f"{qual} calls {callee} which acquires it"),
                    )

    for component in _cycles(adjacency):
        members = set(component)
        edge_bits = []
        anchor: Optional[Tuple[str, int]] = None
        for holder in component:
            for acquired in sorted(adjacency.get(holder, ())):
                if acquired not in members or acquired == holder:
                    continue
                path, line, why = sites[(holder, acquired)]
                if anchor is None:
                    anchor = (path, line)
                edge_bits.append(f"{holder} -> {acquired} ({path}:{line}: {why})")
        if anchor is None:  # pragma: no cover - an SCC always has edges
            continue
        yield Finding(
            "lock-order",
            anchor[0],
            anchor[1],
            "lock-order cycle (potential deadlock) between "
            + ", ".join(component)
            + ": "
            + "; ".join(edge_bits),
        )
