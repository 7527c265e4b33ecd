"""Flow rules for the request-lifecycle contracts (CFG + dataflow).

``ctx-propagation`` — deadlines must actually reach the work:

* every batch implementation (a method named in ``flow.many-methods``
  that takes a ``ctxs`` parameter: the ``EngineBackend`` batch mirrors,
  the environments' ``begin_episode_many``, ``optimize_many``) must
  consult ``ctxs`` on **every** path that reaches planning/execution work
  (a call named in ``flow.work-calls``).  "Consult" is any read of the
  parameter — the ``if ctxs is None`` fast path, ``run_live``, or
  forwarding ``ctxs=`` into the work call itself;
* every ``repro.api`` function that mints a :class:`RequestContext`
  into a local variable (``flow.mint-calls``) must use that context on
  every *normal* path to return — a minted-then-dropped context means
  some caller's deadline silently stopped existing.  Paths that raise
  are exempt: refusing a request may legitimately abandon its context.

``resource-release`` — sockets, worker pipes and acquired connection
locks must be released on **all** CFG paths, exception edges included.
A local variable assigned from an acquisition call (``flow.resources``
maps acquire name → release method names) must, on every path to either
exit, be released (``x.close()`` / ``x.lock.release()`` — any configured
release method reached through ``x``), or have its ownership
transferred: stored (``self.attr = x``, ``d[k] = x``), returned/yielded,
aliased, captured in a container literal argument (``Thread(args=(x,))``)
or handed to a collection (``conns.append(x)``).  Tuple unpacking tracks
every target except ``_``-prefixed names (the repo's convention for
"unused", e.g. ``sock, _addr = listener.accept()``).

Soundness caveats, documented on purpose: a bare ``f(x)`` argument is a
*use*, not a transfer (the callee is not assumed to close it), while a
container/collection hand-off counts as a transfer from that statement
on — including its own exception edge.  ``is None`` / ``is not None``
tests on the resource refine the branch facts, so the canonical
``finally: if x is not None: x.close()`` shape proves clean.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.cfg import build_cfg
from repro.analysis.core import Finding, SourceFile, path_under
from repro.analysis.dataflow import solve_forward
from repro.analysis.registry import rule

#: Collection methods that take ownership of their argument.
_TRANSFER_METHODS = (
    "append",
    "add",
    "insert",
    "extend",
    "put",
    "put_nowait",
    "register",
    "setdefault",
)


def _terminal_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _functions(sf: SourceFile) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(sf.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ----------------------------------------------------------------------
# ctx-propagation
# ----------------------------------------------------------------------

def _header_exprs(stmt: ast.AST) -> List[ast.AST]:
    """What a CFG block's statement *itself* evaluates.

    Compound statements contribute only their header expression — their
    bodies are separate blocks, and attributing a body's reads/calls to
    the header would smear a branch-local fact over both edges.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, (ast.Try, ast.ExceptHandler)):
        return []
    return [stmt]


def _reads_name(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == name and isinstance(sub.ctx, ast.Load)
        for sub in ast.walk(node)
    )


def _stmt_reads_name(stmt: ast.AST, name: str) -> bool:
    return any(_reads_name(expr, name) for expr in _header_exprs(stmt))


def _work_call_lines(stmt: ast.AST, work_calls: frozenset) -> List[Tuple[str, int]]:
    hits = []
    for expr in _header_exprs(stmt):
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                name = _terminal_name(node.func)
                if name in work_calls:
                    hits.append((name, node.lineno))
    return hits


def _is_stub_body(body: List[ast.stmt]) -> bool:
    """Protocol/ABC stubs: docstring and/or ``...``/``pass``/``raise``."""
    for stmt in body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or ...
        if isinstance(stmt, (ast.Pass, ast.Raise)):
            continue
        return False
    return True


def _mint_like(call: ast.Call, mint_calls: Tuple[str, ...]) -> bool:
    try:
        text = ast.unparse(call.func)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return False
    if text.startswith("self."):
        text = text[len("self."):]
    return any(text == entry or text.endswith("." + entry) for entry in mint_calls)


def _check_many_method(
    sf: SourceFile, func: ast.FunctionDef, work_calls: frozenset
) -> Iterator[Finding]:
    if _is_stub_body(func.body):
        return
    cfg = build_cfg(func)

    def transfer(block, fact):
        out = bool(fact) or (
            block.stmt is not None and _stmt_reads_name(block.stmt, "ctxs")
        )
        return {"*": out}

    consulted = solve_forward(cfg, False, transfer, all)
    reported = set()
    for block in cfg.blocks:
        if block.stmt is None or consulted[block.id] is None:
            continue
        hits = _work_call_lines(block.stmt, work_calls)
        if not hits:
            continue
        if consulted[block.id] or _stmt_reads_name(block.stmt, "ctxs"):
            continue
        for name, line in hits:
            if line in reported:
                continue
            reported.add(line)
            yield Finding(
                "ctx-propagation",
                sf.path,
                line,
                f"{func.name}() reaches planning work {name}() on a path that "
                f"never consulted its ctxs parameter: check ctxs (or "
                f"context_expired/run_live) before the batch is handed "
                f"to the engine, or forward ctxs= into the call",
            )


def _check_mint_flow(sf: SourceFile, func: ast.FunctionDef, conf) -> Iterator[Finding]:
    mints: List[Tuple[ast.stmt, str]] = []
    for stmt in ast.walk(func):
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
            and _mint_like(stmt.value, conf.ctx_mint_calls)
        ):
            mints.append((stmt, stmt.targets[0].id))
    if not mints:
        return
    cfg = build_cfg(func)

    def meet(facts):
        if "pending" in facts:
            return "pending"
        if "used" in facts:
            return "used"
        return "untouched"

    for mint_stmt, var in mints:
        mint_block = cfg.by_stmt.get(id(mint_stmt))
        if mint_block is None:
            continue  # unreachable (dead code)

        def transfer(block, fact, _mint=mint_block, _var=var):
            if block.id == _mint.id:
                # The acquiring call raising leaves nothing to drop.
                return {"*": "pending", "except": fact}
            out = fact
            if (
                fact == "pending"
                and block.stmt is not None
                and _stmt_reads_name(block.stmt, _var)
            ):
                out = "used"
            return {"*": out}

        facts = solve_forward(cfg, "untouched", transfer, meet)
        if facts[cfg.exit.id] == "pending":
            yield Finding(
                "ctx-propagation",
                sf.path,
                mint_stmt.lineno,
                f"{func.name}() mints a RequestContext into {var!r} but some "
                f"normal return path never uses it: the deadline/trace this "
                f"entry point promised is dropped before it reaches the "
                f"engine call",
            )


@rule(
    "ctx-propagation",
    contract="ctxs is consulted on every path to batch planning work; "
    "minted RequestContexts flow into the engine call",
)
def check_ctx_propagation(sf: SourceFile, project) -> Iterator[Finding]:
    conf = project.config
    if not path_under(sf.path, conf.enforced_roots):
        return
    work_calls = frozenset(conf.ctx_work_calls)
    many = frozenset(conf.ctx_many_methods)
    for func in _functions(sf):
        if func.name in many and any(
            arg.arg == "ctxs"
            for arg in [*func.args.args, *func.args.kwonlyargs]
        ):
            yield from _check_many_method(sf, func, work_calls)
    if path_under(sf.path, conf.ctx_mint_roots):
        for func in _functions(sf):
            yield from _check_mint_flow(sf, func, conf)


# ----------------------------------------------------------------------
# resource-release
# ----------------------------------------------------------------------

def _receiver_root(node: ast.AST) -> Optional[str]:
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _releases(stmt: ast.AST, var: str, release_names: Tuple[str, ...]) -> bool:
    for expr in _header_exprs(stmt):
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in release_names
                and _receiver_root(node.func.value) == var
            ):
                return True
    return False


def _bare_name_in(container: ast.AST, var: str) -> bool:
    elts = getattr(container, "elts", None)
    if elts is None and isinstance(container, ast.Dict):
        elts = [*container.keys, *container.values]
    if elts is None:
        return False
    return any(isinstance(e, ast.Name) and e.id == var for e in elts)


def _escapes(stmt: ast.AST, var: str) -> bool:
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        if any(
            isinstance(item.context_expr, ast.Name) and item.context_expr.id == var
            for item in stmt.items
        ):
            return True  # the context manager releases it
    for expr in _header_exprs(stmt):
        for node in ast.walk(expr):
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = node.value
                # ``return sock`` / ``return (ok, sock)`` hand the object
                # to the caller; ``return sock.recv()`` does not.
                if value is not None and (
                    (isinstance(value, ast.Name) and value.id == var)
                    or _bare_name_in(value, var)
                ):
                    return True
            if isinstance(node, ast.Assign):
                value = node.value
                if isinstance(value, ast.Name) and value.id == var:
                    return True
                if _bare_name_in(value, var):
                    return True
            if isinstance(node, ast.Call):
                args = [*node.args, *[kw.value for kw in node.keywords]]
                for arg in args:
                    if _bare_name_in(arg, var):
                        return True  # captured in a container literal
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _TRANSFER_METHODS
                    and any(isinstance(a, ast.Name) and a.id == var for a in args)
                ):
                    return True  # handed to a collection
    return False


def _none_test(stmt: ast.AST, var: str) -> Optional[bool]:
    """``True`` for ``if x is None``, ``False`` for ``if x is not None``."""
    if not isinstance(stmt, (ast.If, ast.While)):
        return None
    test = stmt.test
    if (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == var
        and len(test.ops) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        if isinstance(test.ops[0], ast.Is):
            return True
        if isinstance(test.ops[0], ast.IsNot):
            return False
    return None


def _is_cleanup_stmt(stmt: ast.AST, release_union: frozenset) -> bool:
    """A bare release call (``x.close()``, ``conn.lock.release()``).

    Release methods are treated as non-raising for this analysis: a
    cleanup sequence closes several resources back to back, and charging
    a hypothetical failure of one ``close()`` as a leak of its siblings
    would flag every handler that exists precisely to prevent the leak.
    """
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Attribute)
        and stmt.value.func.attr in release_union
    )


def _acquire_match(func_expr: ast.AST, acquires: Dict[str, Tuple[str, ...]]) -> Optional[str]:
    """The matching config key, or ``None``.

    A key with a dot (``listener.accept``) matches on the dotted-text
    suffix of the callee, so a socket ``accept`` does not collide with
    an unrelated method that happens to share the terminal name (the
    SQL tokenizer's ``self.accept``).  A bare key matches the terminal
    name alone.
    """
    terminal = _terminal_name(func_expr)
    try:
        dotted = ast.unparse(func_expr)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        dotted = terminal or ""
    for key in acquires:
        if "." in key:
            if dotted == key or dotted.endswith("." + key):
                return key
        elif terminal == key:
            return key
    return None


def _acquisitions(
    func: ast.FunctionDef, acquires: Dict[str, Tuple[str, ...]]
) -> List[Tuple[ast.stmt, str, Tuple[str, ...]]]:
    found = []
    for stmt in ast.walk(func):
        if not (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call)):
            continue
        name = _acquire_match(stmt.value.func, acquires)
        if name is None:
            continue
        if len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        release_names = acquires[name]
        if isinstance(target, ast.Name):
            found.append((stmt, target.id, release_names))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                if isinstance(elt, ast.Name) and not elt.id.startswith("_"):
                    found.append((stmt, elt.id, release_names))
    return found


@rule(
    "resource-release",
    contract="acquired sockets/pipes/connection locks are released or "
    "ownership-transferred on every path, exception edges included",
)
def check_resource_release(sf: SourceFile, project) -> Iterator[Finding]:
    conf = project.config
    if not path_under(sf.path, conf.enforced_roots):
        return
    acquires = dict(conf.resource_acquires)
    if not acquires:
        return
    release_union = frozenset(
        name for names in acquires.values() for name in names
    )
    for func in _functions(sf):
        sites = _acquisitions(func, acquires)
        if not sites:
            continue
        cfg = build_cfg(func)

        def meet(facts):
            if "held" in facts:
                return "held"
            if "safe" in facts:
                return "safe"
            return "un"

        for acq_stmt, var, release_names in sites:
            acq_block = cfg.by_stmt.get(id(acq_stmt))
            if acq_block is None:
                continue  # dead code

            def transfer(block, fact, _acq=acq_block, _var=var, _rel=release_names):
                if block.id == _acq.id:
                    # If the acquiring call itself raises, nothing was
                    # acquired — the except edge keeps the incoming fact.
                    return {"*": "held", "except": fact}
                out = {"*": fact}
                if fact != "held":
                    return out
                stmt = block.stmt
                if stmt is None:
                    return out
                if _releases(stmt, _var, _rel) or _escapes(stmt, _var):
                    return {"*": "safe"}
                if _is_cleanup_stmt(stmt, release_union):
                    out["except"] = None  # cleanup calls treated as non-raising
                refined = _none_test(stmt, _var)
                if refined is True:
                    out["true"] = "safe"
                elif refined is False:
                    out["false"] = "safe"
                return out

            facts = solve_forward(cfg, "un", transfer, meet)
            acq_name = _terminal_name(acq_stmt.value.func)
            if facts[cfg.raise_exit.id] == "held":
                yield Finding(
                    "resource-release",
                    sf.path,
                    acq_stmt.lineno,
                    f"{var!r} (from {acq_name}()) can leak when an exception "
                    f"unwinds {func.name}(): release it in a finally/except "
                    f"(one of: {', '.join(release_names)}) or transfer "
                    f"ownership before the first raising statement",
                )
            elif facts[cfg.exit.id] == "held":
                yield Finding(
                    "resource-release",
                    sf.path,
                    acq_stmt.lineno,
                    f"{var!r} (from {acq_name}()) is not released on every "
                    f"return path of {func.name}(): call one of "
                    f"{', '.join(release_names)} (or transfer ownership) "
                    f"before returning",
                )
