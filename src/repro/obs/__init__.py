"""repro.obs — the unified observability layer (metrics + tracing).

One process-global :class:`~repro.obs.metrics.MetricsRegistry` and one
:class:`~repro.obs.trace.Tracer`, shared by the api serving layer, the
engine backends and the remote server, so a single scrape or snapshot
sees the whole process.  Layering: ``repro.obs`` imports nothing from
the rest of the package (stdlib + numpy only) and is importable from
both ``repro.api`` and ``repro.engine`` — it sits beside ``nn`` at the
bottom of the layer DAG.

The ``REPRO_OBS`` environment variable gates *tracing* (``REPRO_OBS=0``
disables it; anything else, including unset, enables it).  Metrics are
always on — a counter bump is cheaper than the branch to skip it would
be worth.  The contract when tracing is off: no trace ids are minted, no
spans are allocated anywhere on the request path, and every wire frame
is the same bytes as with tracing on for an untraced request.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, Optional

from repro.obs.export import (  # noqa: F401  (re-exports)
    dump,
    render_json,
    render_prometheus,
    snapshot,
)
from repro.obs.metrics import (  # noqa: F401
    DEFAULT_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import Span, Tracer, new_trace_id as _new_trace_id  # noqa: F401

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "Tracer",
    "enabled",
    "set_enabled",
    "get_registry",
    "get_tracer",
    "get_observability",
    "new_trace_id",
    "register_snapshot_source",
    "span_for_ctxs",
]

_enabled = os.environ.get("REPRO_OBS", "1") != "0"
_REGISTRY = MetricsRegistry()
_TRACER = Tracer()
_sources_lock = threading.Lock()
_SOURCES: Dict[str, Callable[[], dict]] = {}


def enabled() -> bool:
    """Is tracing enabled (``REPRO_OBS`` gate)?"""
    return _enabled


def set_enabled(flag: bool) -> bool:
    """Flip the tracing gate at runtime; returns the previous value."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def get_tracer() -> Tracer:
    return _TRACER


def new_trace_id() -> Optional[str]:
    """A fresh trace id, or ``None`` when tracing is disabled."""
    if not _enabled:
        return None
    return _new_trace_id()


def register_snapshot_source(name: str, fn: Callable[[], dict]) -> None:
    """Attach an extra named section to JSON snapshots (idempotent).

    A higher layer attaches telemetry it owns here; the session registers
    its engine backend's ``stats()``.
    """
    with _sources_lock:
        _SOURCES[name] = fn


def snapshot_sources() -> Dict[str, Callable[[], dict]]:
    with _sources_lock:
        return dict(_SOURCES)


class _NullSpan:
    """No-op stand-in so call sites can ``with span_for_ctxs(...)``."""

    __slots__ = ()
    span_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def end(self, at=None, status=None) -> None:
        return None


_NULL_SPAN = _NullSpan()


def span_for_ctxs(name: str, ctxs, attrs: Optional[Dict[str, object]] = None):
    """Open a span parented on the first traced context, or a no-op.

    Reads ``trace_id``/``parent_span_id`` by attribute: obs sits below
    the engine layer, so it never imports
    :class:`~repro.engine.context.RequestContext`.  Untraced batches pay
    one attribute scan and allocate nothing.
    """
    if ctxs is None:
        return _NULL_SPAN
    for ctx in ctxs:
        if ctx is None:
            continue
        trace_id = getattr(ctx, "trace_id", None)
        if trace_id:
            return _TRACER.begin(
                name,
                trace_id=trace_id,
                parent_id=getattr(ctx, "parent_span_id", None),
                attrs=attrs,
            )
    return _NULL_SPAN


class Observability:
    """The user-facing handle returned by ``FossSession.observability()``."""

    def __init__(self, registry: MetricsRegistry, tracer: Tracer) -> None:
        self.registry = registry
        self.tracer = tracer

    def snapshot(self) -> dict:
        return snapshot(self.registry, self.tracer, snapshot_sources())

    def prometheus(self) -> str:
        return render_prometheus(self.registry)

    def json(self) -> str:
        return render_json(self.registry, self.tracer, snapshot_sources())

    def dump(self, path: str, fmt: str = "json") -> str:
        return dump(path, self.registry, self.tracer, snapshot_sources(), fmt=fmt)

    def spans(self, trace_id: Optional[str] = None):
        return self.tracer.spans(trace_id)

    def trace_tree(self, trace_id: str):
        return self.tracer.tree(trace_id)


_OBSERVABILITY = Observability(_REGISTRY, _TRACER)


def get_observability() -> Observability:
    return _OBSERVABILITY


def metrics_http_response(path: str) -> Optional[bytes]:
    """A complete HTTP/1.0 response for the opt-in ``/metrics`` listener.

    Returns ``None`` for unknown paths (callers send a 404).  Lives here
    so the engine server needs no HTTP framework: the whole "endpoint"
    is a prefix sniff plus this pre-rendered response.
    """
    if path in ("/metrics", "/metrics/"):
        body = render_prometheus(_REGISTRY).encode("utf-8")
        content_type = b"text/plain; version=0.0.4; charset=utf-8"
    elif path in ("/metrics.json", "/metrics/json"):
        body = render_json(_REGISTRY, _TRACER, snapshot_sources()).encode("utf-8")
        content_type = b"application/json; charset=utf-8"
    else:
        return None
    return (
        b"HTTP/1.0 200 OK\r\n"
        b"Content-Type: " + content_type + b"\r\n"
        b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
        b"Connection: close\r\n"
        b"\r\n" + body
    )

