"""Spans and the process-wide :class:`Tracer`.

A :class:`Span` is one timed stage of a request (``service.request``,
``remote.call``, ``server.dispatch``, ``engine.batch``); spans sharing a
``trace_id`` form one tree joined by ``parent_id`` links, even when the
stages ran in different processes.  Spans cross the wire as plain dicts
(:meth:`Span.to_dict` / :meth:`Span.from_dict`) piggybacked on the
reply frame's ``spans`` slot — the server :meth:`Tracer.drain`\\ s the spans it
produced for a request's trace ids and the client ``ingest``\\ s them into
its own tracer, so the caller ends up holding the whole tree.

Ids are minted deterministically from a process-local counter qualified
by pid (the determinism invariants in ``tests/test_invariants.py`` ban
global-state RNG and wall clocks); timestamps are ``time.monotonic()``
seconds, comparable within a process only — cross-process ordering comes
from the parent links, not the clock.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

__all__ = ["Span", "Tracer", "new_trace_id"]

_id_lock = threading.Lock()
_id_counter = itertools.count(1)


def _next_serial() -> int:
    with _id_lock:
        return next(_id_counter)


def new_trace_id() -> str:
    """A fresh trace id, unique across the processes of one run."""
    return f"t{os.getpid():x}-{_next_serial():x}"


def _new_span_id() -> str:
    return f"s{os.getpid():x}-{_next_serial():x}"


@dataclass(slots=True)
class Span:
    """One timed, named stage of a trace.

    Open until :meth:`end` is called; ending records the span into the
    tracer that created it.  Abandoned spans (errors before ``end``) are
    simply never recorded — the tracer holds no reference to open spans,
    so they cannot leak.
    """

    trace_id: str
    name: str
    span_id: str = field(default_factory=_new_span_id)
    parent_id: Optional[str] = None
    start_s: float = 0.0
    end_s: Optional[float] = None
    status: str = "ok"
    attrs: Dict[str, object] = field(default_factory=dict)
    _tracer: Optional["Tracer"] = field(default=None, repr=False, compare=False)

    def end(self, at: Optional[float] = None, status: Optional[str] = None) -> None:
        if self.end_s is not None:  # idempotent: first end wins
            return
        self.end_s = time.monotonic() if at is None else at
        if status is not None:
            self.status = status
        tracer, self._tracer = self._tracer, None
        if tracer is not None:
            tracer.record(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end(status="error" if exc_type is not None else None)

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "status": self.status,
        }
        if self.parent_id is not None:
            data["parent_id"] = self.parent_id
        if self.attrs:
            data["attrs"] = dict(self.attrs)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        return cls(
            trace_id=str(data["trace_id"]),
            name=str(data["name"]),
            span_id=str(data["span_id"]),
            parent_id=data.get("parent_id"),  # type: ignore[arg-type]
            start_s=float(data.get("start_s") or 0.0),
            end_s=data.get("end_s"),  # type: ignore[arg-type]
            status=str(data.get("status", "ok")),
            attrs=dict(data.get("attrs") or {}),
        )


class Tracer:
    """Bounded store of finished spans, plus the span factory.

    ``capacity`` bounds memory: the store is a deque, oldest spans fall
    off.  Everything under one short mutex — no blocking calls inside.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self._lock = threading.Lock()
        self._finished: deque = deque(maxlen=capacity)

    def begin(
        self,
        name: str,
        trace_id: str,
        parent_id: Optional[str] = None,
        attrs: Optional[Dict[str, object]] = None,
        start: Optional[float] = None,
    ) -> Span:
        """Open a span; it records itself here when ended."""
        if start is None:
            start = time.monotonic()
        return Span(
            trace_id=trace_id,
            name=name,
            parent_id=parent_id,
            start_s=start,
            attrs=dict(attrs or {}),
            _tracer=self,
        )

    def add(
        self,
        name: str,
        trace_id: str,
        parent_id: Optional[str] = None,
        start_s: float = 0.0,
        end_s: float = 0.0,
        attrs: Optional[Dict[str, object]] = None,
        status: str = "ok",
    ) -> Span:
        """Record an already-finished stage retrospectively."""
        span = Span(
            trace_id=trace_id,
            name=name,
            parent_id=parent_id,
            start_s=start_s,
            end_s=end_s,
            status=status,
            attrs=dict(attrs or {}),
        )
        self.record(span)
        return span

    def record(self, span: Span) -> None:
        with self._lock:
            self._finished.append(span)

    def ingest(self, span_dicts: Iterable[Dict[str, object]]) -> None:
        """Adopt spans shipped from another process (wire dicts)."""
        spans = [Span.from_dict(d) for d in span_dicts]
        with self._lock:
            self._finished.extend(spans)

    def drain(self, trace_ids: Iterable[str]) -> List[Dict[str, object]]:
        """Remove and return the spans of the given traces, as wire dicts.

        This is the server-side half of piggybacking: spans produced
        while serving a request leave with its reply instead of piling
        up in the server process.
        """
        wanted = set(trace_ids)
        if not wanted:
            return []
        with self._lock:
            kept, shipped = [], []
            for span in self._finished:
                (shipped if span.trace_id in wanted else kept).append(span)
            if shipped:
                self._finished.clear()
                self._finished.extend(kept)
        return [span.to_dict() for span in shipped]

    def spans(self, trace_id: Optional[str] = None) -> List[Span]:
        with self._lock:
            spans = list(self._finished)
        if trace_id is not None:
            spans = [s for s in spans if s.trace_id == trace_id]
        return spans

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()

    def tree(self, trace_id: str) -> List[Dict[str, object]]:
        """The trace as nested dicts: roots with ``children`` lists.

        A span whose parent is unknown (e.g. the parent is still open)
        becomes a root — the tree is always renderable.
        """
        spans = self.spans(trace_id)
        nodes = {s.span_id: dict(s.to_dict(), children=[]) for s in spans}
        roots: List[Dict[str, object]] = []
        for span in spans:
            node = nodes[span.span_id]
            parent = nodes.get(span.parent_id) if span.parent_id else None
            if parent is not None:
                parent["children"].append(node)
            else:
                roots.append(node)
        return roots
