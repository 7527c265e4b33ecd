"""RPC surface parity: the remote protocol cannot drift one-sided.

``EngineServer._dispatch`` matches request kinds against string
literals; ``RemoteBackend`` emits kinds as the first argument of
``self._call(...)`` (and, for the raw handshake, as the first argument of
the codec's :data:`REQUEST_ENCODER`).  Both vocabularies are extracted
statically and compared:

* an op the client emits but the server does not handle is always an
  error — the request would come back ``("err", "unknown engine RPC")``;
* an op the server handles but no client emits must be declared in
  ``[tool.repro-lint.rpc] server-only-ops`` with a reason (today there
  is none), so protocol additions fail lint until both sides and the
  config/docs agree.

``rpc-arity`` goes one level deeper than the op-name set: per op, the
*payload shape* the client encodes must match what the server's dispatch
destructures.  A client-side ``_call("plan_many", (queries, options))``
is a 2-tuple; the matching server branch must unpack exactly two names
from the payload variable (``queries, options = body``).  A ``None``
payload must land in a branch that never destructures.  Shapes the
analysis cannot see through (a bare name, a call result) are honestly
skipped — the rule reports only provable disagreements, where the
request would die with a ``TypeError``/``ValueError`` inside dispatch.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Finding, SourceFile
from repro.analysis.registry import PROJECT_SCOPE, rule

#: The codec call that builds a request frame outside ``_call``: the
#: client's raw handshake, ``encode_request("fingerprint", None, None)``.
REQUEST_ENCODER = "repro.engine.wire.encode_request"


def server_ops(sf: SourceFile, kind_var: str) -> Dict[str, int]:
    """Op → first handling line, from ``kind == "..."`` comparisons."""
    ops: Dict[str, int] = {}
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.Compare):
            continue
        if not (isinstance(node.left, ast.Name) and node.left.id == kind_var):
            continue
        for op, comparator in zip(node.ops, node.comparators):
            if not isinstance(op, (ast.Eq, ast.In)):
                continue
            literals = []
            if isinstance(comparator, ast.Constant) and isinstance(comparator.value, str):
                literals.append(comparator.value)
            elif isinstance(comparator, (ast.Tuple, ast.List, ast.Set)):
                literals.extend(
                    elt.value
                    for elt in comparator.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                )
            for literal in literals:
                ops.setdefault(literal, node.lineno)
    return ops


def _emitted(sf: SourceFile) -> Iterator[Tuple[str, Optional[ast.AST], int]]:
    """``(op, payload node, line)`` of every ``_call("op", payload)`` and
    ``encode_request("op", payload, ...)`` with a literal op."""
    for node in ast.walk(sf.tree):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        func = node.func
        if not (
            (isinstance(func, ast.Attribute) and func.attr == "_call")
            or sf.resolve(func) == REQUEST_ENCODER
        ):
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            payload = node.args[1] if len(node.args) > 1 else None
            yield first.value, payload, node.lineno


def client_ops(sf: SourceFile) -> Dict[str, int]:
    """Op → first emitting line, from ``_call("op", ...)`` and raw frames."""
    ops: Dict[str, int] = {}
    for op, _payload, line in _emitted(sf):
        ops.setdefault(op, line)
    return ops


@rule(
    "rpc-parity",
    scope=PROJECT_SCOPE,
    contract="client-emitted RPC ops == server-dispatched ops (modulo declared server-only ops)",
)
def check_rpc_parity(project) -> Iterator[Finding]:
    config = project.config
    server_sf = project.load(config.rpc_server)
    client_sf = project.load(config.rpc_client)
    if server_sf is None or client_sf is None:
        for label, path, sf in (
            ("server", config.rpc_server, server_sf),
            ("client", config.rpc_client, client_sf),
        ):
            if sf is None:
                yield Finding(
                    "rpc-parity",
                    path,
                    1,
                    f"configured RPC {label} file not found or unparsable; "
                    f"fix [tool.repro-lint.rpc] {label} = ...",
                )
        return
    handled = server_ops(server_sf, config.rpc_kind_var)
    emitted = client_ops(client_sf)
    if not handled:
        yield Finding(
            "rpc-parity",
            server_sf.path,
            1,
            f"no dispatched ops found (no '{config.rpc_kind_var} == \"...\"' "
            f"comparisons); did the dispatch change shape?",
        )
        return
    if not emitted:
        yield Finding(
            "rpc-parity",
            client_sf.path,
            1,
            "no emitted ops found (no _call(\"...\") calls); did the client "
            "change shape?",
        )
        return
    for op in sorted(set(emitted) - set(handled)):
        yield Finding(
            "rpc-parity",
            client_sf.path,
            emitted[op],
            f"client emits RPC op {op!r} that EngineServer._dispatch does "
            f"not handle; add the server branch (and protocol docs) before "
            f"shipping the client side",
        )
    for op in sorted(set(handled) - set(emitted)):
        if op in config.rpc_server_only:
            continue
        yield Finding(
            "rpc-parity",
            server_sf.path,
            handled[op],
            f"server handles RPC op {op!r} that no client emits; wire the "
            f"client side or declare it in [tool.repro-lint.rpc] "
            f"server-only-ops with a reason",
        )


# ----------------------------------------------------------------------
# rpc-arity: per-op payload shape
# ----------------------------------------------------------------------

#: Shapes: ("none",) | ("tuple", n) | ("opaque",).
Shape = Tuple


def _payload_shape(node: Optional[ast.AST]) -> Shape:
    if node is None or (isinstance(node, ast.Constant) and node.value is None):
        return ("none",)
    if isinstance(node, ast.Tuple):
        return ("tuple", len(node.elts))
    return ("opaque",)


def client_payloads(sf: SourceFile) -> Dict[str, List[Tuple[Shape, int]]]:
    """Op → every emitted payload shape (with its line)."""
    shapes: Dict[str, List[Tuple[Shape, int]]] = {}
    for op, payload, line in _emitted(sf):
        shapes.setdefault(op, []).append((_payload_shape(payload), line))
    return shapes


def _branch_literals(test: ast.AST, kind_var: str) -> List[str]:
    if not isinstance(test, ast.Compare):
        return []
    if not (isinstance(test.left, ast.Name) and test.left.id == kind_var):
        return []
    literals: List[str] = []
    for op, comparator in zip(test.ops, test.comparators):
        if not isinstance(op, (ast.Eq, ast.In)):
            continue
        if isinstance(comparator, ast.Constant) and isinstance(comparator.value, str):
            literals.append(comparator.value)
        elif isinstance(comparator, (ast.Tuple, ast.List, ast.Set)):
            literals.extend(
                elt.value
                for elt in comparator.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return literals


def server_shapes(
    sf: SourceFile, kind_var: str, body_var: str
) -> Dict[str, Tuple[Shape, int]]:
    """Op → the payload shape its dispatch branch consumes.

    ``("tuple", n)`` when the branch unpacks ``a, b, ... = body``;
    ``("opaque",)`` when it reads ``body`` whole; ``("none",)`` when the
    branch never touches the payload variable.
    """
    shapes: Dict[str, Tuple[Shape, int]] = {}
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.If):
            continue
        ops = _branch_literals(node.test, kind_var)
        if not ops:
            continue
        shape: Shape = ("none",)
        for stmt in node.body:
            for child in ast.walk(stmt):
                if (
                    isinstance(child, ast.Assign)
                    and len(child.targets) == 1
                    and isinstance(child.targets[0], (ast.Tuple, ast.List))
                    and isinstance(child.value, ast.Name)
                    and child.value.id == body_var
                ):
                    shape = ("tuple", len(child.targets[0].elts))
                    break
                if (
                    isinstance(child, ast.Name)
                    and child.id == body_var
                    and isinstance(child.ctx, ast.Load)
                ):
                    shape = ("opaque",)
            if shape[0] == "tuple":
                break
        for op in ops:
            shapes.setdefault(op, (shape, node.lineno))
    return shapes


def _describe(shape: Shape) -> str:
    if shape[0] == "tuple":
        return f"a {shape[1]}-tuple"
    if shape[0] == "none":
        return "None"
    return "an opaque value"


@rule(
    "rpc-arity",
    scope=PROJECT_SCOPE,
    contract="per RPC op, the tuple payload the client encodes matches "
    "what the server dispatch destructures",
)
def check_rpc_arity(project) -> Iterator[Finding]:
    config = project.config
    server_sf = project.load(config.rpc_server)
    client_sf = project.load(config.rpc_client)
    if server_sf is None or client_sf is None:
        return  # rpc-parity already reports the missing file
    handled = server_shapes(server_sf, config.rpc_kind_var, config.rpc_body_var)
    emitted = client_payloads(client_sf)
    for op in sorted(set(emitted) & set(handled)):
        server_shape, server_line = handled[op]
        for client_shape, client_line in emitted[op]:
            if client_shape == ("opaque",) or server_shape == ("opaque",):
                continue  # cannot prove anything about unseen shapes
            if client_shape[0] == "tuple" and server_shape[0] == "tuple":
                if client_shape[1] != server_shape[1]:
                    yield Finding(
                        "rpc-arity",
                        client_sf.path,
                        client_line,
                        f"op {op!r} sends {_describe(client_shape)} but the "
                        f"server branch at {server_sf.path}:{server_line} "
                        f"destructures {_describe(server_shape)}; the request "
                        f"would fail inside dispatch",
                    )
            elif client_shape == ("none",) and server_shape[0] == "tuple":
                yield Finding(
                    "rpc-arity",
                    client_sf.path,
                    client_line,
                    f"op {op!r} sends no payload but the server branch at "
                    f"{server_sf.path}:{server_line} destructures "
                    f"{_describe(server_shape)}; the request would fail "
                    f"inside dispatch",
                )
            # tuple payload into a branch that ignores it is legal (the
            # server may deliberately accept-and-drop extra data).
