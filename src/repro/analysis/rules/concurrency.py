"""Concurrency-discipline rule: no unbounded blocking under a lock.

The repo's connection discipline (``RemoteBackend._call``) *does* hold
a per-connection lock across a full send→recv round trip — that is
the documented design that keeps frames from interleaving — but every
such site must say so: an **unannotated** blocking call under a lock is
either a new deadlock surface or an undocumented extension of the
discipline, and both deserve review.  Hence the rule ships with named
suppressions at the known sites and an empty baseline, so any new
lock-held blocking call fails lint until it carries a justification.

Two lexical shapes count as "under a lock":

* inside the body of ``with <something lockish>:``;
* inside a ``try:`` whose immediately preceding statements acquire a
  lock (the repo's canonical ``acquire(); try: ... finally: release()``
  pattern, including loops acquiring several locks).

``join``/``wait`` with any timeout argument are bounded and exempt; the
blocking-call vocabulary itself is configuration
(``[tool.repro-lint.concurrency] blocking-calls``).
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.core import Finding, SourceFile, path_under
from repro.analysis.registry import rule


def _is_lockish(expr: ast.AST) -> bool:
    """Heuristic: does this with-item expression denote a lock?"""
    try:
        text = ast.unparse(expr).lower()
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return False
    return "lock" in text or "mutex" in text or "semaphore" in text


def _acquires_lock(stmt: ast.stmt) -> bool:
    """Does this statement (or anything inside it) call ``*acquire*``?"""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call):
            func = node.func
            name = None
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            if name is not None and "acquire" in name:
                return True
    return False


def _lock_held_tries(sf: SourceFile) -> Set[ast.Try]:
    """Try statements entered with a lock taken just above them."""
    held: Set[ast.Try] = set()
    for node in ast.walk(sf.tree):
        body = getattr(node, "body", None)
        if not isinstance(body, list):
            continue
        for index, stmt in enumerate(body):
            if not isinstance(stmt, ast.Try):
                continue
            # Look back over the few statements before the try; the
            # canonical pattern puts acquire() (or a loop of them, or an
            # `x = self._acquire()` assignment) immediately above.
            lookback = body[max(0, index - 3) : index]
            if any(_acquires_lock(previous) for previous in lookback):
                held.add(stmt)
    return held


def _call_name(call: ast.Call):
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _has_timeout(call: ast.Call) -> bool:
    """Any argument bounds join()/wait() (they take only a timeout)."""
    return bool(call.args) or bool(call.keywords)


@rule(
    "lock-blocking",
    contract="no unbounded blocking call while lexically holding a lock",
)
def check_lock_blocking(sf: SourceFile, project) -> Iterator[Finding]:
    config = project.config
    if not path_under(sf.path, config.enforced_roots):
        return
    blocking = set(config.blocking_calls)
    exempt_with_timeout = set(config.timeout_exempt)
    held_tries = _lock_held_tries(sf)
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name not in blocking:
            continue
        if name in exempt_with_timeout and _has_timeout(node):
            continue
        holder = None
        for ancestor in sf.ancestors(node):
            if isinstance(ancestor, ast.Try) and ancestor in held_tries:
                holder = "a lock acquired just above this try block"
                break
            if isinstance(ancestor, ast.With) and any(
                _is_lockish(item.context_expr) for item in ancestor.items
            ):
                holder = "the lock of the enclosing with block"
                break
        if holder is None:
            continue
        yield Finding(
            "lock-blocking",
            sf.path,
            node.lineno,
            f"blocking call {name}() while holding {holder}: either bound "
            f"it with a timeout, move it outside the critical section, or "
            f"— if this is the documented pipe discipline (lock held "
            f"across one full round trip) — annotate the line with "
            f"'# repro-lint: allow[lock-blocking]' and a justification",
        )
