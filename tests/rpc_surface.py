"""The engine's RPC surface as a client really uses it.

:func:`record_ops` drives a fresh :class:`RemoteBackend` through every
public backend method against a live server and returns each request it
sends, whether through ``_call`` or, like the handshake, straight through
the codec.  :func:`op_table_gaps` holds that record against the op table
(:data:`repro.engine.wire.OPS`): every body sent must pass
:func:`~repro.engine.wire.check_body` after a JSON round trip, and every
op in the table must be sent by some call.  An op the client sends that
the table lacks fails ``check_body`` as unknown, so no op can be
client-only or server-only.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.icp import IncompletePlan
from repro.engine.backend import EngineBackend
from repro.engine.remote import RemoteBackend, RemoteEngineError
from repro.engine.remote import client as client_module
from repro.engine.wire import OPS, check_body, decode_message, encode_message
from repro.optimizer.dp import OptimizerOptions

CLIENT_TIMEOUT_S = 60.0


def public_methods(cls) -> set:
    return {name for name, member in vars(cls).items() if callable(member) and not name.startswith("_")}


def _call_hints_many(backend, query, plan, icp):
    edited = icp.override(1, "merge" if icp.methods[0] != "merge" else "nestloop")
    return backend.plan_with_hints_many([(query, edited.order, edited.methods)])


#: One call per public method of ``EngineBackend`` and of
#: ``RemoteBackend``; ``close`` goes last.
CALLS = {
    "sql": lambda backend, query, plan, icp: backend.sql(query.sql_text(), name="op_table"),
    "join_space": lambda backend, query, plan, icp: backend.join_space(query),
    "plan": lambda backend, query, plan, icp: backend.plan(query),
    "plan_many": lambda backend, query, plan, icp: backend.plan_many(
        [query], OptimizerOptions(disabled_methods=frozenset({"merge"}))
    ),
    "plan_with_hints": lambda backend, query, plan, icp: backend.plan_with_hints(
        query, icp.order, icp.methods
    ),
    "plan_with_hints_many": _call_hints_many,
    "execute": lambda backend, query, plan, icp: backend.execute(query, plan, timeout_ms=500.0),
    "execute_many": lambda backend, query, plan, icp: backend.execute_many([(query, plan, None)]),
    "original_latency": lambda backend, query, plan, icp: backend.original_latency(query),
    "explain": lambda backend, query, plan, icp: backend.explain(plan),
    "stats": lambda backend, query, plan, icp: backend.stats(),
    "clear_caches": lambda backend, query, plan, icp: backend.clear_caches(),
    "ping": lambda backend, query, plan, icp: backend.ping(),
    "close": lambda backend, query, plan, icp: backend.close(),
}


def uncovered_methods() -> set:
    """Public backend methods :data:`CALLS` does not drive (and stale entries)."""
    methods = public_methods(EngineBackend) | public_methods(RemoteBackend)
    return set(CALLS) ^ methods


def record_ops(url, workload, monkeypatch) -> Tuple[List[tuple], List[str]]:
    """``(sent, failures)``: every ``(kind, body)`` a fresh client sends
    while :data:`CALLS` drives it, and each call (or the connect) the
    server refused."""
    sent = []
    encode = client_module.encode_request

    def recording(kind, body, wire_ctxs):
        sent.append((kind, body))
        return encode(kind, body, wire_ctxs)

    monkeypatch.setattr(client_module, "encode_request", recording)
    database = workload.database
    query = next(w.query for w in workload.train if w.query.num_tables >= 3)
    plan = database.plan(query).plan
    icp = IncompletePlan.extract(plan)
    # A fresh client: its first socket sends the handshake, and its
    # planning memos are empty, so every planning call reaches the wire.
    try:
        backend = RemoteBackend(url, database=database, timeout_s=CLIENT_TIMEOUT_S)
    except RemoteEngineError as exc:
        return sent, [f"connect: {exc}"]
    failures = []
    try:
        for name, call in CALLS.items():
            try:
                call(backend, query, plan, icp)
            except RemoteEngineError as exc:
                failures.append(f"{name}: {exc}")
    finally:
        backend.close()
    return sent, failures


def op_table_gaps(sent) -> List[str]:
    """Every way ``sent`` and :data:`OPS` disagree; empty when they match."""
    gaps = []
    for kind, body in sent:
        try:
            check_body(kind, decode_message(encode_message(body)))
        except ValueError as exc:
            gaps.append(f"client sends {kind!r}: {exc}")
    for kind in sorted(set(OPS) - {kind for kind, _body in sent}):
        gaps.append(f"{kind!r} is in the op table but no client call sends it")
    return gaps
