"""The network engine subsystem: ``EngineBackend`` over a TCP socket.

The paper's deployment story assumes the execution engine is a separate
service, not an in-process library — many optimizer tenants on one
machine, the engine on another.  This package is that seam:

* :class:`~repro.engine.remote.server.EngineServer` wraps an in-process
  engine (:class:`~repro.engine.backend.LocalBackend`) and serves the
  ``EngineBackend`` surface over TCP as the batch ops of one op table
  (:data:`repro.engine.wire.OPS`), one length-prefixed crc32-checksummed
  frame per message.  The ``repro-engine`` console script
  (``server.main``) is the deployable entry point.
* :class:`~repro.engine.remote.client.RemoteBackend` implements the
  ``EngineBackend`` protocol client-side: a thread-safe connection pool
  (per-connection locks held across one send→recv round trip), every
  singleton sent as a batch of one and every batch as a single frame,
  configurable timeouts, bounded auto-reconnect, and the connect-time
  handshake that hands the client the server's catalog (its only copy of
  the dataset's metadata; the client builds no rows) and holds every
  reconnect to that catalog's fingerprint.

Determinism: the engine is a pure function of the dataset, and the server
rebuilds it from a :class:`~repro.workloads.base.WorkloadSpec` — so plans
are bitwise-identical across the local and remote backends
(``tests/test_remote_backend.py``).
"""

from repro.engine.remote.client import (
    RemoteBackend,
    RemoteEngineError,
    RemoteTimeoutError,
    parse_engine_url,
)
from repro.engine.remote.server import EngineServer, serve

__all__ = [
    "EngineServer",
    "RemoteBackend",
    "RemoteEngineError",
    "RemoteTimeoutError",
    "parse_engine_url",
    "serve",
]
