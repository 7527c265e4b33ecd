"""The typed request envelope every layer carries, and its failure types.

A :class:`RequestContext` identifies one request as it crosses layers —
``OptimizerService.submit`` → the micro-batching flusher → an
``EngineBackend`` (in-process, or over the remote wire)
— so deadlines, tenancy, priorities and per-stage tracing work end to
end instead of stopping at the first API boundary:

* **identity** — ``request_id`` (minted monotonically) and ``tenant``
  travel with the request, so traces and server logs can attribute work;
* **deadline** — ``deadline_s`` is a *budget* in seconds from
  ``submitted_at``: the api layer refuses already-expired submits, the
  flusher drops tickets whose budget ran out while queued (counted as
  ``expired`` in ``stats()``, never ``failures``), the optimizer refuses
  expired queries before their episodes start, and an engine backend's
  ``plan_many`` — the one engine call that takes contexts — skips
  expired items while it fetches the original plans; the remote wire
  re-anchors the remaining budget on the server's own clock.  Hint
  completion and execution take none: once a query's episode has
  started, its deadline no longer changes its plan;
* **priority** — higher-priority tickets are flushed first when a burst
  outruns the flusher (equal priorities keep strict submission order, so
  the default is behavior-identical to pre-context serving);
* **tracing** — a context minted with ``traced=True`` carries a
  ``repro.obs`` ``trace_id`` (plus the current ``parent_span_id``) across
  the wire, so every layer's spans join into one tree — see
  :mod:`repro.obs`.  Untraced contexts carry neither field, so their wire
  encoding is the same whether tracing is on or off.

The context lives in the engine layer, the lowest one that consumes it:
the remote server rebuilds the same type from the wire that the serving
layer mints, so a standalone ``repro-engine`` process enforces deadlines
without importing :mod:`repro.api` (which re-exports everything here).

Timestamps are :func:`time.monotonic` seconds.  The monotonic clock is
shared by every process on one machine but **not** across machines —
which is why :meth:`RequestContext.to_wire` encodes the
*remaining* budget and :meth:`RequestContext.from_wire` re-anchors it on
the receiving clock.

Contexts are frozen: a layer may read one anywhere, no layer can mutate
one in flight.  Everything here is picklable.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro import obs

__all__ = [
    "CLOCK",
    "DeadlineExceededError",
    "MonotonicClock",
    "OptimizeError",
    "RequestContext",
    "deadline_error",
    "run_live",
]


class OptimizeError(RuntimeError):
    """An optimizer could not produce a plan for the given input.

    This is the single failure type the serving layer exposes: malformed
    SQL, references to unknown tables/columns, and any other parse/bind
    problem surface as one ``OptimizeError`` instead of leaking lexer,
    parser or binder internals to callers.
    """


class DeadlineExceededError(OptimizeError):
    """A request's deadline budget ran out before its work could start.

    Raised by the engine, the optimizer and the serving layer alike.
    Subclasses :class:`OptimizeError` so existing handlers degrade
    gracefully, but the serving layer counts it as ``expired``, never
    ``failures``.
    """


def deadline_error(ctx: "RequestContext", what: str) -> DeadlineExceededError:
    """The typed error for a request whose budget ran out before ``what``."""
    return DeadlineExceededError(
        f"request {ctx.request_id} exceeded its {ctx.deadline_s}s deadline before {what}"
    )


def run_live(
    items: Sequence,
    ctxs: Optional[Sequence[Optional["RequestContext"]]],
    fn: Callable[[Sequence, Optional[Sequence]], Sequence],
    dead: Callable[["RequestContext"], object],
) -> List:
    """``fn`` over the items whose context has not expired; ``dead`` fills the rest.

    ``ctxs`` is ``None`` (no deadlines: ``fn(items, None)``) or aligned
    with ``items``; a length mismatch raises ``ValueError``.  ``fn`` is
    called once with the live items and their contexts, and must return
    one result per live item; it is never called when every item expired.
    Each expired item's slot holds ``dead(ctx)``.
    """
    if ctxs is None:
        return fn(items, None)
    if len(ctxs) != len(items):
        raise ValueError(f"ctxs length {len(ctxs)} != batch length {len(items)}")
    expired = [ctx is not None and ctx.expired() for ctx in ctxs]
    if not any(expired):
        return fn(items, ctxs)
    live = [i for i, gone in enumerate(expired) if not gone]
    results = iter(fn([items[i] for i in live], [ctxs[i] for i in live]) if live else ())
    return [dead(ctx) if gone else next(results) for ctx, gone in zip(ctxs, expired)]


class MonotonicClock:
    """The default clock: :func:`time.monotonic`, injectable for tests."""

    # The builtin itself, not a method around it: a memo hit reads it twice.
    now = staticmethod(time.monotonic)


#: Shared default clock instance.
CLOCK = MonotonicClock()

# Monotonic request-id mint, shared process-wide so ids stay unique across
# services and tenants.  itertools.count is atomic under the GIL, but the
# lock keeps the invariant explicit (and safe under future GIL-free
# pythons).
_mint_lock = threading.Lock()
_mint_counter = itertools.count()


@dataclass(frozen=True)
class RequestContext:
    """One request's identity, budget and priority, carried across layers.

    ``deadline_s`` is a relative budget: the request expires at
    ``submitted_at + deadline_s`` on the minting machine's monotonic
    clock.  ``None`` means no deadline — such requests are never dropped
    and their plans are bitwise-identical to pre-context serving.
    """

    request_id: str
    tenant: str = ""
    submitted_at: float = field(default_factory=time.monotonic)
    deadline_s: Optional[float] = None
    priority: int = 0
    #: ``repro.obs`` trace this request belongs to; ``None`` = untraced.
    trace_id: Optional[str] = None
    #: Span id of the caller's currently open span; each layer re-parents
    #: via :meth:`with_parent_span` before handing the context down.
    parent_span_id: Optional[str] = None

    @classmethod
    def mint(
        cls,
        tenant: str = "",
        deadline_s: Optional[float] = None,
        priority: int = 0,
        clock: Optional[MonotonicClock] = None,
        traced: bool = False,
    ) -> "RequestContext":
        """A fresh context with a process-unique monotonic request id.

        ``traced=True`` attaches a fresh ``repro.obs`` trace id — unless
        tracing is disabled (``REPRO_OBS=0``), in which case the minted
        context is indistinguishable from an untraced one.
        """
        if deadline_s is not None and deadline_s < 0:
            raise ValueError(f"deadline_s must be >= 0, got {deadline_s}")
        with _mint_lock:
            serial = next(_mint_counter)
        trace_id = obs.new_trace_id() if traced else None
        return cls(
            request_id=f"{tenant or 'req'}-{serial:08d}",
            tenant=tenant,
            submitted_at=(clock or CLOCK).now(),
            deadline_s=deadline_s,
            priority=priority,
            trace_id=trace_id,
        )

    def with_parent_span(self, span_id: Optional[str]) -> "RequestContext":
        """A copy whose downstream spans parent on ``span_id``."""
        if span_id == self.parent_span_id:
            return self
        # Direct construction, not dataclasses.replace: replace() walks the
        # field list on every call and this runs once per traced request on
        # the flush hot path.
        return RequestContext(
            request_id=self.request_id,
            tenant=self.tenant,
            submitted_at=self.submitted_at,
            deadline_s=self.deadline_s,
            priority=self.priority,
            trace_id=self.trace_id,
            parent_span_id=span_id,
        )

    # ------------------------------------------------------------------
    # deadline arithmetic
    # ------------------------------------------------------------------
    @property
    def deadline_at(self) -> Optional[float]:
        """Absolute monotonic expiry time, or ``None`` for no deadline."""
        if self.deadline_s is None:
            return None
        return self.submitted_at + self.deadline_s

    def remaining_s(self, now: Optional[float] = None) -> Optional[float]:
        """Budget left (clamped at 0.0), or ``None`` for no deadline."""
        deadline_at = self.deadline_at
        if deadline_at is None:
            return None
        if now is None:
            now = time.monotonic()
        return max(0.0, deadline_at - now)

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the budget has run out (never true without a deadline)."""
        deadline_at = self.deadline_at
        if deadline_at is None:
            return False
        if now is None:
            now = time.monotonic()
        return now >= deadline_at

    # ------------------------------------------------------------------
    # wire representation
    # ------------------------------------------------------------------
    def to_wire(self, now: Optional[float] = None) -> Dict:
        """A compact dict for the remote protocol's request frames.

        Monotonic clocks do not transfer across machines, so the wire form
        carries the *remaining* budget (``ttl_s``) computed at encode
        time; :meth:`from_wire` re-anchors it on the receiving clock.  The
        one-way network delay is silently absorbed into the budget — the
        server sees a slightly more generous deadline than the client,
        which errs on the side of serving.
        """
        data: Dict = {"id": self.request_id}
        if self.tenant:
            data["tenant"] = self.tenant
        if self.priority:
            data["priority"] = self.priority
        remaining = self.remaining_s(now)
        if remaining is not None:
            data["ttl_s"] = remaining
        # Trace keys only when tracing is live, so an untraced frame is the
        # same bytes whether tracing is on or off.
        if self.trace_id:
            data["trace"] = self.trace_id
            if self.parent_span_id:
                data["span"] = self.parent_span_id
        return data

    @classmethod
    def from_wire(
        cls, data: Optional[Dict], clock: Optional[MonotonicClock] = None
    ) -> Optional["RequestContext"]:
        """Rebuild a context from :meth:`to_wire`, re-anchored on ``clock``.

        ``data`` comes off a socket, so every field is type-checked:
        ``ValueError`` unless it is a dict of the types :meth:`to_wire` writes.
        """
        if data is None:
            return None
        if type(data) is not dict:
            raise ValueError("a wire context is a dict")
        request_id = data.get("id", "")
        tenant = data.get("tenant", "")
        ttl_s = data.get("ttl_s")
        priority = data.get("priority", 0)
        trace_id = data.get("trace")
        span_id = data.get("span")
        if not (
            type(request_id) is str
            and type(tenant) is str
            and (ttl_s is None or type(ttl_s) in (int, float))
            and type(priority) is int
            and (trace_id is None or type(trace_id) is str)
            and (span_id is None or type(span_id) is str)
        ):
            raise ValueError(f"malformed wire context {data!r}")
        return cls(
            request_id=request_id,
            tenant=tenant,
            submitted_at=(clock or CLOCK).now(),
            deadline_s=ttl_s,
            priority=priority,
            trace_id=trace_id,
            parent_span_id=span_id,
        )
