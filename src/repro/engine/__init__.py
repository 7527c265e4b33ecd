"""The expert engine — this reproduction's stand-in for PostgreSQL.

:mod:`repro.engine.database` is the concrete in-process engine;
:mod:`repro.engine.backend` defines the :class:`EngineBackend` protocol the
rest of the system depends on, plus the local implementation;
:mod:`repro.engine.remote` serves that protocol over a TCP socket
(``repro-engine`` server + :class:`RemoteBackend` client), framed by
:mod:`repro.engine.wire`; :mod:`repro.engine.context` holds the request
context every layer above carries down to it.
"""

from repro.engine.backend import EngineBackend, LocalBackend
from repro.engine.database import Database, Dataset, PlanningResult
from repro.engine.wire import FrameCorruptionError, FrameTooLargeError

# The remote subsystem is re-exported lazily: the default in-process path
# must not pay for socket/server plumbing it never uses (FossSession.open
# defers the import the same way).
_REMOTE_EXPORTS = ("EngineServer", "RemoteBackend", "RemoteEngineError")


def __getattr__(name):
    if name in _REMOTE_EXPORTS:
        from repro.engine import remote

        return getattr(remote, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Database",
    "Dataset",
    "PlanningResult",
    "EngineBackend",
    "EngineServer",
    "FrameCorruptionError",
    "FrameTooLargeError",
    "LocalBackend",
    "RemoteBackend",
    "RemoteEngineError",
]
