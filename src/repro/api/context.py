"""The typed request envelope every serving layer carries.

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
  ``expired`` in ``stats()``, never ``failures``), backends skip expired
  items inside a batch, and the remote wire re-anchors the remaining
  budget on the server's own clock;
* **priority** — higher-priority tickets are flushed first when a burst
  outruns the flusher (equal priorities keep strict submission order, so
  the default is behavior-identical to pre-context serving);
* **tracing** — layers stamp stage times onto the ticket
  (``enqueue`` → ``flush`` → ``engine`` → ``done``); a
  :data:`TraceHook` observes every stamp and ``stats()`` exposes
  p50/p95/p99 per stage.  A context minted with ``traced=True``
  additionally carries a ``repro.obs`` ``trace_id`` (plus the current
  ``parent_span_id``) across the wire, so every layer's spans join into
  one tree — see :mod:`repro.obs`.  Untraced contexts carry neither
  field and their wire encoding is byte-identical to the pre-obs
  format.

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
from typing import Callable, Dict, Optional

from repro import obs

# Re-exported: the engine layer raises it (via repro.core.inference, which
# sits below the api package) and serving callers catch it from here.
from repro.core.inference import DeadlineExceededError
from repro.engine.wire import register_context_decoder

__all__ = [
    "AdmissionRejectedError",
    "DeadlineExceededError",
    "MonotonicClock",
    "RequestContext",
    "STAGES",
    "TraceHook",
]

#: The request lifecycle stages, in order.  ``enqueue`` is stamped at
#: submit, ``flush`` when a flusher slice picks the ticket up, ``engine``
#: when the optimizer/engine batch returns, ``done`` when the outcome is
#: stored and waiters are released.
STAGES = ("enqueue", "flush", "engine", "done")

#: Observer for stage stamps: ``hook(ctx, stage, timestamp)``.  Called
#: synchronously by the serving layer as each stage is stamped; hooks
#: must be cheap and must not raise (failures are swallowed — tracing
#: can never take serving down).
TraceHook = Callable[["RequestContext", str, float], None]


class AdmissionRejectedError(RuntimeError):
    """The service's bounded pending queue is full; back off and retry.

    Raised by ``submit`` *before* a ticket is issued, so a rejected
    request costs the caller nothing but this exception — it never
    occupies queue space, never reaches the engine, and is counted as
    ``rejected`` (not ``failures``) in ``stats()``.
    """


class MonotonicClock:
    """The default clock: :func:`time.monotonic`, injectable for tests."""

    def now(self) -> float:
        return time.monotonic()


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
        """A compact dict for the remote protocol (v2 frames).

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
        # Trace keys only when tracing is live: untraced frames must stay
        # byte-identical to the pre-obs wire format.
        if self.trace_id:
            data["trace"] = self.trace_id
            if self.parent_span_id:
                data["span"] = self.parent_span_id
        return data

    @classmethod
    def from_wire(
        cls, data: Optional[Dict], clock: Optional[MonotonicClock] = None
    ) -> Optional["RequestContext"]:
        """Rebuild a context from :meth:`to_wire`, re-anchored on ``clock``."""
        if data is None:
            return None
        return cls(
            request_id=str(data.get("id", "")),
            tenant=str(data.get("tenant", "")),
            submitted_at=(clock or CLOCK).now(),
            deadline_s=data.get("ttl_s"),
            priority=int(data.get("priority", 0)),
            trace_id=data.get("trace"),
            parent_span_id=data.get("span"),
        )


# Dependency inversion with the wire layer: the engine never imports the
# serving package, so this module hands its codec *down* to
# ``repro.engine.wire`` at import time.  Any process that runs the serving
# layer therefore decodes full RequestContext objects from v2 frames; a
# standalone ``repro-engine`` server that never imports ``repro.api``
# falls back to the engine-level ``WireContext`` view instead.
register_context_decoder(RequestContext.from_wire)
