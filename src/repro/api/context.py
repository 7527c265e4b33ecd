"""Serving-layer request lifecycle: stages and admission.

The request envelope itself — :class:`~repro.engine.context.RequestContext`,
its clock and :class:`~repro.engine.context.DeadlineExceededError` — lives
in :mod:`repro.engine.context`, the lowest layer that consumes it, and is
re-exported by :mod:`repro.api`.  What stays here exists only in the
serving layer: layers stamp stage times onto a ticket (``enqueue`` →
``flush`` → ``engine`` → ``done``) and ``stats()`` exposes p50/p95/p99
per stage; a full pending queue refuses a submit with
:class:`AdmissionRejectedError`.
"""

from __future__ import annotations

__all__ = [
    "AdmissionRejectedError",
    "STAGES",
]

#: The request lifecycle stages, in order.  ``enqueue`` is stamped at
#: submit, ``flush`` when a flusher slice picks the ticket up, ``engine``
#: when the optimizer/engine batch returns, ``done`` when the outcome is
#: stored and waiters are released.
STAGES = ("enqueue", "flush", "engine", "done")


class AdmissionRejectedError(RuntimeError):
    """The service's bounded pending queue is full; back off and retry.

    Raised by ``submit`` *before* a ticket is issued, so a rejected
    request costs the caller nothing but this exception — it never
    occupies queue space, never reaches the engine, and is counted as
    ``rejected`` (not ``failures``) in ``stats()``.
    """
