"""The engine wire: crc32 frames carrying plain-data JSON messages.

The repo has one integrity convention: fields are *length-prefixed* before
they enter a crc32 (bare concatenation would let distinct byte sequences
collide — ``["ab", "c"]`` vs ``["a", "bc"]``), and crc32 — never builtin
``hash()``, which varies with ``PYTHONHASHSEED`` — is the checksum.  Two
things build on it:

* :func:`crc32_chain` — the chaining step behind the session manifest's
  dataset fingerprint (:func:`repro.engine.database.dataset_fingerprint`);
* the **frame format** of the remote engine subsystem
  (:mod:`repro.engine.remote`): every message on the wire is one frame ::

      MAGIC (4 bytes) | payload length (u32 BE) | crc32(payload) (u32 BE) | payload

  A reader can therefore detect a truncated stream (short header or
  payload), a foreign/desynchronized stream (bad magic), a corrupted
  payload (crc mismatch → :class:`FrameCorruptionError`) and an abusive or
  garbage length (:class:`FrameTooLargeError`) before a single payload
  byte is interpreted.

Messages
--------
A payload is one JSON document (stdlib :mod:`json`): decoding builds only
lists, dicts, strings, numbers, booleans and ``None``, so no peer can make
the other side run code, and floats round-trip exactly through ``repr``
(``Infinity`` and ``NaN`` included).  Tuples are sent as arrays.  The
protocol is :data:`PROTOCOL_VERSION`; the ``fingerprint`` handshake
advertises it and a client refuses a server that speaks any other.
:data:`OPS` holds, per op, the request body's shape and the server's
handler.

================  =====================================================================
message           shape
================  =====================================================================
request           ``[kind, body, contexts]``; ``contexts`` is ``null`` or one context
                  (or ``null``) per batch item
reply             ``["ok", [result, executions, spans]]`` (``spans`` is empty for an
                  untraced request) or ``["err", message]``
``ping``          body ``null``; result ``null``
``fingerprint``   body ``null``; result ``{protocol, dataset_fingerprint, workload,
                  backend}``
``stats``         body ``null``; result the backend's stats dict
``clear_caches``  body ``null``; result ``null``
``plan_many``     body ``[[query, ...], options]``; result ``[planning | null, ...]``
``hint_many``     body ``[[query, order, methods], ...]``; result
                  ``[planning | null, ...]``
``execute_many``  body ``[[query, plan, timeout_ms], ...]``; result
                  ``[execution | null, ...]``
================  =====================================================================

The values inside them:

=============  ==================================================================
value          descriptor
=============  ==================================================================
query          ``[text, name]``: the SQL the query was bound from
               (:meth:`~repro.sql.ast.Query.sql_text`); the receiver binds it
               through its own statement cache
options        ``null`` or ``[disabled_methods, leading_prefix, max_dp_tables]``
plan           ``[aliases, methods, scan_types, index_columns, est_rows,
               est_costs]`` of a left-deep plan: leaves left to right, join
               methods bottom-up, and the estimates of the ``n`` leaves
               followed by those of the ``n - 1`` joins bottom-up
planning       ``[planning_ms, plan]``
execution      ``[latency_ms, output_rows, timed_out, work_units,
               aggregate_values]``
context        :meth:`~repro.engine.context.RequestContext.to_wire`'s dict
span           :meth:`~repro.obs.Span.to_dict`'s dict
=============  ==================================================================

A plan carries no filter or predicate: :func:`plan_from_wire` rebuilds
them from the receiver's own query, exactly as the optimizer attaches them
(a leaf's filters are ``query.filters_for(alias)``; a join's predicates
are the query's join predicates linking its right alias to the left side,
in query order).  Every plan the engine builds — expert, hinted, greedy —
has exactly those, so a plan survives the trip ``==`` to itself.

Streams are file-like objects (``socket.makefile("rwb")`` on sockets):
``read(n)`` returning fewer than ``n`` bytes means EOF.  A clean EOF *at a
frame boundary* is reported as ``None`` from :func:`read_frame`; EOF
inside a frame is corruption — the peer died mid-message.
"""

from __future__ import annotations

import json
import struct
import zlib
from operator import call, itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.engine.context import RequestContext
from repro.executor.engine import ExecutionResult
from repro.optimizer.dp import OptimizerOptions
from repro.optimizer.plans import JoinNode, PlanNode, ScanNode
from repro.sql.ast import Query

#: The message shapes above; the fingerprint handshake advertises it.
PROTOCOL_VERSION = 5

MAGIC = b"FOSW"  # FOSS wire
_HEADER = struct.Struct(">4sII")  # magic, payload length, crc32(payload)
HEADER_SIZE = _HEADER.size

# Generous for batched plan/execute messages at bench scales, small enough
# that a corrupted length field cannot make a reader try to buffer
# gigabytes before the crc check would catch it.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameCorruptionError(RuntimeError):
    """The stream does not contain a well-formed, checksum-valid frame."""


class FrameTooLargeError(FrameCorruptionError):
    """A frame's declared payload length exceeds the configured cap."""


def crc32_chain(crc: int, data: bytes) -> int:
    """Fold one length-prefixed field into a running crc32."""
    return zlib.crc32(data, zlib.crc32(f"{len(data)}:".encode("ascii"), crc))


def encode_frame(payload: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """One wire frame for ``payload``; rejects oversized payloads sender-side."""
    if len(payload) > max_frame_bytes:
        raise FrameTooLargeError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(max_frame_bytes={max_frame_bytes})"
        )
    return _HEADER.pack(MAGIC, len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


def write_frame(
    stream, payload: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> None:
    """Write one frame to a file-like stream and flush it."""
    stream.write(encode_frame(payload, max_frame_bytes=max_frame_bytes))
    stream.flush()


def read_frame(
    stream, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Optional[bytes]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`FrameCorruptionError` for truncation mid-frame, a bad
    magic, or a crc mismatch, and :class:`FrameTooLargeError` for a
    declared length above ``max_frame_bytes`` — in every case before any
    payload byte is handed to the caller.
    """
    header = stream.read(HEADER_SIZE)
    if not header:
        return None
    if len(header) < HEADER_SIZE:
        raise FrameCorruptionError(
            f"truncated frame header: got {len(header)} of {HEADER_SIZE} bytes"
        )
    magic, length, expected_crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameCorruptionError(
            f"bad frame magic {magic!r} (stream is not speaking the engine wire "
            f"protocol, or has desynchronized)"
        )
    if length > max_frame_bytes:
        raise FrameTooLargeError(
            f"frame declares a {length}-byte payload "
            f"(max_frame_bytes={max_frame_bytes})"
        )
    payload = stream.read(length)
    if len(payload) < length:
        raise FrameCorruptionError(
            f"truncated frame payload: got {len(payload)} of {length} bytes"
        )
    actual_crc = zlib.crc32(payload) & 0xFFFFFFFF
    if actual_crc != expected_crc:
        raise FrameCorruptionError(
            f"frame crc mismatch: header says {expected_crc:08x}, payload "
            f"checksums to {actual_crc:08x}"
        )
    return payload


# ----------------------------------------------------------------------
# messages
# ----------------------------------------------------------------------
_encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
_decode = json.JSONDecoder().decode


def encode_message(message) -> bytes:
    """One message as a frame payload (plain data only; ``TypeError`` otherwise)."""
    return _encode(message).encode("ascii")


def decode_message(payload: bytes):
    """A frame payload back as plain data; ``ValueError`` if it is not JSON.

    Too deep a nesting is a ``ValueError`` too, not a ``RecursionError``.
    """
    try:
        return _decode(payload.decode("utf-8"))
    except RecursionError:
        raise ValueError("message nests too deeply") from None


def encode_request(kind: str, body, wire_ctxs) -> bytes:
    """The request frame payload ``[kind, body, contexts]``."""
    return encode_message((kind, body, wire_ctxs))


def decode_request(payload: bytes):
    """``(kind, body, contexts)`` of a request; ``ValueError`` on any other shape.

    The body is returned as sent: the server checks it against its op's
    shape (:func:`check_body`) before anything runs.
    """
    message = decode_message(payload)
    if not (type(message) is list and len(message) == 3 and type(message[0]) is str):
        raise ValueError("a request is [kind, body, contexts]")
    kind, body, wire_ctxs = message
    return kind, body, contexts_from_wire(wire_ctxs)


def decode_reply(payload: bytes):
    """``(status, body)`` of a reply; ``ValueError`` on any other shape."""
    message = decode_message(payload)
    if not (type(message) is list and len(message) == 2 and message[0] in ("ok", "err")):
        raise ValueError('a reply is ["ok" | "err", body]')
    return message[0], message[1]


# ----------------------------------------------------------------------
# request shapes
# ----------------------------------------------------------------------
Shape = Callable[[object], bool]


def _str(value) -> bool:
    return type(value) is str


def _int(value) -> bool:
    return type(value) is int  # not bool: type(True) is bool


def _num(value) -> bool:
    return type(value) is float or type(value) is int


def _none(value) -> bool:
    return value is None


def _optional(shape: Shape) -> Shape:
    return lambda value: value is None or shape(value)


def _list_of(shape: Shape) -> Shape:
    return lambda value: type(value) is list and all(map(shape, value))


def _row(*shapes: Shape) -> Shape:
    size = len(shapes)

    def conforms(value) -> bool:
        return type(value) is list and len(value) == size and all(map(call, shapes, value))

    return conforms


_QUERY = _row(_str, _str)
_PLAN = _row(
    _list_of(_str), _list_of(_str), _list_of(_str), _list_of(_optional(_str)),
    _list_of(_num), _list_of(_num),
)
_OPTIONS = _optional(_row(_list_of(_str), _list_of(_str), _int))

# ----------------------------------------------------------------------
# values
# ----------------------------------------------------------------------
def query_to_wire(query: Query) -> List[str]:
    """``[text, name]``: what the receiver binds to an equal query."""
    return [query.sql_text(), query.name]


def options_to_wire(options: Optional[OptimizerOptions]):
    if options is None:
        return None
    return [sorted(options.disabled_methods), list(options.leading_prefix), options.max_dp_tables]


def options_from_wire(data) -> Optional[OptimizerOptions]:
    if data is None:
        return None
    disabled, prefix, max_dp_tables = data
    return OptimizerOptions(
        disabled_methods=frozenset(disabled),
        leading_prefix=tuple(prefix),
        max_dp_tables=max_dp_tables,
    )


def plan_to_wire(plan: PlanNode) -> list:
    """A left-deep plan's descriptor (module docstring); ``ValueError`` otherwise."""
    joins = []
    node = plan
    while isinstance(node, JoinNode):
        joins.append(node)
        node = node.left
    joins.reverse()
    scans = [node] + [join.right for join in joins]
    if not all(isinstance(scan, ScanNode) for scan in scans):
        raise ValueError(
            "only a left-deep plan (every join's right child a scan) crosses the wire"
        )
    return [
        [scan.alias for scan in scans],
        [join.method for join in joins],
        [scan.scan_type for scan in scans],
        [scan.index_column for scan in scans],
        [scan.est_rows for scan in scans] + [join.est_rows for join in joins],
        [scan.est_cost for scan in scans] + [join.est_cost for join in joins],
    ]


def plan_from_wire(data, query: Query) -> PlanNode:
    """Rebuild the plan a descriptor describes, over the receiver's ``query``.

    Filters and predicates come from ``query`` (module docstring), so the
    result is ``==`` to the plan the sender described.  ``ValueError`` if
    the descriptor does not fit ``query``.
    """
    aliases, methods, scan_types, index_columns, est_rows, est_costs = data
    tables = query.tables
    n = len(aliases)
    if (
        n != len(tables)
        or set(aliases) != tables.keys()
        or len(methods) != n - 1
        or len(scan_types) != n
        or len(index_columns) != n
        or len(est_rows) != 2 * n - 1
        or len(est_costs) != 2 * n - 1
    ):
        raise ValueError(f"plan descriptor does not fit query {query.name or query.sql_text()!r}")
    filters: Dict[str, list] = {alias: [] for alias in aliases}
    for predicate in query.filters:
        filters[predicate.column.alias].append(predicate)
    # Per alias, (other alias, predicate) in query order: JoinSpace.joins.
    links: Dict[str, list] = {alias: [] for alias in aliases}
    for predicate in query.join_predicates:
        left, right = predicate.left.alias, predicate.right.alias
        links[left].append((right, predicate))
        links[right].append((left, predicate))
    scans = [
        ScanNode(
            alias=alias,
            table=tables[alias],
            scan_type=scan_type,
            index_column=index_column,
            filters=tuple(filters[alias]),
            est_rows=rows,
            est_cost=cost,
        )
        for alias, scan_type, index_column, rows, cost in zip(
            aliases, scan_types, index_columns, est_rows, est_costs
        )
    ]
    plan: PlanNode = scans[0]
    placed = {aliases[0]}
    for k in range(1, n):
        alias = aliases[k]
        plan = JoinNode(
            left=plan,
            right=scans[k],
            method=methods[k - 1],
            predicates=tuple(predicate for other, predicate in links[alias] if other in placed),
            est_rows=est_rows[n + k - 1],
            est_cost=est_costs[n + k - 1],
        )
        placed.add(alias)
    return plan


def planning_to_wire(result) -> Optional[list]:
    """``[planning_ms, plan]`` of a ``PlanningResult``; ``None`` stays ``None``."""
    if result is None:
        return None
    return [result.planning_ms, plan_to_wire(result.plan)]


def execution_to_wire(result: Optional[ExecutionResult]) -> Optional[list]:
    if result is None:
        return None
    return [
        result.latency_ms,
        int(result.output_rows),
        result.timed_out,
        result.work_units,
        [float(value) for value in result.aggregate_values],
    ]


def execution_from_wire(data) -> Optional[ExecutionResult]:
    if data is None:
        return None
    latency_ms, output_rows, timed_out, work_units, aggregate_values = data
    return ExecutionResult(
        latency_ms=latency_ms,
        output_rows=output_rows,
        timed_out=timed_out,
        work_units=work_units,
        aggregate_values=tuple(aggregate_values),
    )


# ----------------------------------------------------------------------
# ops: a server checks a body whole before it binds or runs anything, so
# a malformed request touches no backend method
# ----------------------------------------------------------------------
def _bind(backend, query) -> Query:
    """A wire query ``[text, name]``, bound through the backend's statement cache."""
    text, name = query
    return backend.sql(text, name=name)


def _ping(server, body, ctxs) -> None:
    return None


def _hello(server, body, ctxs) -> dict:
    return {
        "protocol": PROTOCOL_VERSION,
        "dataset_fingerprint": server.fingerprint,
        "workload": server.workload_info,
        "backend": server.backend_name,
    }


def _stats(server, body, ctxs) -> dict:
    return server.backend.stats()


def _clear_caches(server, body, ctxs) -> None:
    server.backend.clear_caches()


def _plan_many(server, body, ctxs) -> list:
    queries, options = body
    backend = server.backend
    options = options_from_wire(options)
    queries = [_bind(backend, query) for query in queries]
    return [planning_to_wire(r) for r in backend.plan_many(queries, options, ctxs=ctxs)]


def _hint_many(server, body, ctxs) -> list:
    backend = server.backend
    requests = [(_bind(backend, query), order, methods) for query, order, methods in body]
    return [planning_to_wire(r) for r in backend.plan_with_hints_many(requests, ctxs=ctxs)]


def _execute_many(server, body, ctxs) -> list:
    backend = server.backend
    requests = []
    for query, plan, timeout_ms in body:
        query = _bind(backend, query)
        requests.append((query, plan_from_wire(plan, query), timeout_ms))
    return [execution_to_wire(r) for r in backend.execute_many(requests, ctxs=ctxs)]


def _items(body):
    return body


class Op(NamedTuple):
    """One engine RPC.

    ``shape`` is the body a request must have; ``handle(server, body,
    contexts)`` runs it and returns the plain-data result; ``batch`` picks
    the items a batch op's contexts align with out of its body.
    """

    shape: Shape
    handle: Callable
    batch: Optional[Callable] = None


#: Every engine RPC by name: the server dispatches through this table.
OPS: Dict[str, Op] = {
    "ping": Op(_none, _ping),
    "fingerprint": Op(_none, _hello),
    "stats": Op(_none, _stats),
    "clear_caches": Op(_none, _clear_caches),
    "plan_many": Op(_row(_list_of(_QUERY), _OPTIONS), _plan_many, itemgetter(0)),
    "hint_many": Op(_list_of(_row(_QUERY, _list_of(_str), _list_of(_str))), _hint_many, _items),
    "execute_many": Op(_list_of(_row(_QUERY, _PLAN, _optional(_num))), _execute_many, _items),
}


def check_body(kind: str, body) -> Op:
    """``kind``'s op; ``ValueError`` unless ``body`` has its request shape."""
    op = OPS.get(kind)
    if op is None:
        raise ValueError(f"unknown engine RPC {kind!r}")
    if not op.shape(body):
        raise ValueError(f"malformed {kind} request body")
    return op


# ----------------------------------------------------------------------
# request contexts on the wire
# ----------------------------------------------------------------------
# Contexts cross the socket as compact plain dicts: monotonic clocks do
# not transfer across machines, so the dict carries the *remaining* budget
# (``ttl_s``) and the receiver re-anchors it on its own clock.


def contexts_to_wire(ctxs, now: Optional[float] = None):
    """Encode an aligned context sequence for a request frame (``None`` → ``None``)."""
    if ctxs is None:
        return None
    return [None if ctx is None else ctx.to_wire(now) for ctx in ctxs]


def contexts_from_wire(wire_ctxs) -> Optional[List[Optional[RequestContext]]]:
    """Rebuild contexts from a request frame, re-anchored on this machine's clock."""
    if wire_ctxs is None:
        return None
    if type(wire_ctxs) is not list:
        raise ValueError("request contexts must be null or a list")
    return [RequestContext.from_wire(data) for data in wire_ctxs]
