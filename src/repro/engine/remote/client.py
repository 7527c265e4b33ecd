"""``RemoteBackend``: the ``EngineBackend`` protocol over a TCP socket.

The client holds the server's :class:`~repro.catalog.catalog.Catalog`,
sent in the handshake, and no rows: SQL parse/bind, join spaces and
EXPLAIN read only that snapshot and never need the wire; planning and
execution RPCs travel to a ``repro-engine`` server as length-prefixed,
crc32-checksummed frames of plain-data JSON (:mod:`repro.engine.wire`).
A query crosses as the SQL text it was bound from and a plan as a
descriptor of numbers and names; the client rebuilds each reply's plan
over the query object it sent, so a remote plan is ``==`` to the local
one without planning here.

Concurrency: a small pool of connections, each guarded by a lock held
across one full send→recv round trip, so concurrent tenants (e.g. several
sessions opened over one ``RemoteBackend``) pipeline whole batches
without interleaving bytes on a socket.
``*_many`` calls ship as single frames — one round trip per batch, not per
item — and planning RPCs are memoized client-side, two
:class:`~repro.engine.memo.Memo` instances whose hits skip the round trip.

Failure surface, split by whether retrying can help: timeouts and dropped
connections get a bounded reconnect (requests are idempotent — the engine
is a pure function of the dataset — so a retry cannot double-apply
anything) and then a typed error — :class:`RemoteTimeoutError` when every
attempt timed out, :class:`RemoteEngineError` otherwise.  Connection
*refused* fails fast with no retries (nobody is listening; backing off
won't make a server appear), as does a fingerprint/handshake mismatch; a
checksum-invalid or desynchronized stream raises
:class:`~repro.engine.wire.FrameCorruptionError` immediately, because
corruption is a bug to surface, not a transient to paper over.

Every fresh socket opens with the fingerprint handshake.  The client
refuses a server that speaks another wire protocol version, one that
advertises another workload recipe than the client's ``spec``, and one
whose catalog is malformed.  The first hello's catalog is kept, and every
later hello — a reconnect — must carry its fingerprint, the same crc32
fingerprint a checkpoint records.
"""

from __future__ import annotations

import dataclasses
import socket
import threading
import time
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.catalog.catalog import Catalog
from repro.engine.context import run_live
from repro.engine.database import (
    HINT_CACHE_CAPACITY,
    STATEMENT_CACHE_CAPACITY,
    PlanningResult,
    bind_statement,
    plan_key,
)
from repro.engine.memo import Memo
from repro.engine.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameCorruptionError,
    FrameTooLargeError,
    contexts_to_wire,
    decode_reply,
    encode_request,
    execution_from_wire,
    options_to_wire,
    plan_from_wire,
    plan_to_wire,
    query_to_wire,
    read_frame,
    write_frame,
)
from repro.executor.engine import ExecutionResult
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.dp import JoinSpace, OptimizerOptions, PlanEnumerator
from repro.optimizer.plans import Plan, explain
from repro.sql.ast import Query, StatementKey


def _no_result(ctx) -> None:
    """The slot of a batch item whose deadline expired before it shipped."""
    return None


def _planning_from_wire(data, query: Query) -> Optional[PlanningResult]:
    """A ``[planning_ms, plan]`` reply slot, rebuilt over the query it answers."""
    if data is None:
        return None
    return PlanningResult(plan=plan_from_wire(data[1], query), planning_ms=data[0])


class RemoteEngineError(RuntimeError):
    """A remote engine RPC failed (server error, dead/unreachable server,
    a refused handshake)."""


class RemoteTimeoutError(RemoteEngineError):
    """Every bounded reconnect attempt timed out waiting on the server.

    Transient by definition — the server exists but answered too slowly —
    so callers with retry budgets (hedging, failover fronts) may try
    again.  Distinct from plain :class:`RemoteEngineError`, which covers
    the non-transient cases (connection refused, handshake mismatch,
    server-side errors) where retrying cannot help.
    """


def parse_engine_url(url: str) -> Tuple[str, int]:
    """``tcp://host:port`` → ``(host, port)``; loud on anything else."""
    if not url.startswith("tcp://"):
        raise ValueError(
            f"engine_url must look like tcp://host:port, got {url!r}"
        )
    rest = url[len("tcp://") :]
    host, sep, port_text = rest.rpartition(":")
    if not sep or not host or not port_text:
        raise ValueError(
            f"engine_url must look like tcp://host:port, got {url!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"engine_url port must be an integer, got {url!r}"
        ) from None
    if not (0 < port < 65536):
        raise ValueError(f"engine_url port out of range in {url!r}")
    return host, port


class _Connection:
    """One pooled socket: lazy connect, framed round trips, drop on error."""

    def __init__(self, host: str, port: int, timeout_s: float, max_frame_bytes: int) -> None:
        self._host = host
        self._port = port
        self._timeout_s = timeout_s
        self._max_frame_bytes = max_frame_bytes
        self.lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._stream = None

    def ensure(self) -> bool:
        """Connect if needed; True when this call created a fresh socket."""
        if self._sock is not None:
            return False
        sock = socket.create_connection((self._host, self._port), timeout=self._timeout_s)
        try:
            sock.settimeout(self._timeout_s)
            # One small request frame per batch: don't let Nagle hold it back.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            stream = sock.makefile("rwb")
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self._stream = stream
        return True

    def round_trip(self, request: bytes) -> bytes:
        """Send one frame, read one frame; caller must hold ``lock``."""
        write_frame(self._stream, request, max_frame_bytes=self._max_frame_bytes)
        response = read_frame(self._stream, max_frame_bytes=self._max_frame_bytes)
        if response is None:
            raise ConnectionError("server closed the connection")
        return response

    def drop(self) -> None:
        stream, sock = self._stream, self._sock
        self._stream = None
        self._sock = None
        for closable in (stream, sock):
            if closable is not None:
                try:
                    closable.close()
                except OSError:  # pragma: no cover - platform-dependent
                    pass


class RemoteBackend:
    """An ``EngineBackend`` served by a ``repro-engine`` TCP server.

    The client holds the catalog of the server's first hello and builds no
    database.  ``spec``, a :class:`~repro.workloads.base.WorkloadSpec`, is
    the recipe the client expects: a server that advertises another is
    refused.  Without one, any recipe is accepted, as is a server that
    advertises none (one wrapping a backend it was handed).
    """

    def __init__(
        self,
        url: str,
        *,
        spec=None,
        pool_size: int = 2,
        timeout_s: float = 120.0,
        max_reconnects: int = 2,
        reconnect_backoff_s: float = 0.05,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.url = url
        self._host, self._port = parse_engine_url(url)
        self.spec = spec
        self.timeout_s = timeout_s
        self.max_reconnects = max_reconnects
        self.reconnect_backoff_s = reconnect_backoff_s
        self.max_frame_bytes = max_frame_bytes
        self._pool = [
            _Connection(self._host, self._port, timeout_s, max_frame_bytes)
            for _ in range(pool_size)
        ]
        self._rr_lock = threading.Lock()
        self._rr = 0
        self._state_lock = threading.Lock()
        self._remote_executions = 0
        self._closed = False
        # Episode loops revisit the same queries and one-step hint edits
        # constantly; no lock is held across an RPC, so two threads missing
        # one key both fetch, and the first insert wins.
        self._plan_memo: Memo[str, PlanningResult] = Memo(HINT_CACHE_CAPACITY)
        self._hint_memo: Memo[Tuple, PlanningResult] = Memo(HINT_CACHE_CAPACITY)
        self._statement_cache: Memo[Tuple[str, str], Query] = Memo(STATEMENT_CACHE_CAPACITY)
        self._join_spaces: Memo[StatementKey, JoinSpace] = Memo(STATEMENT_CACHE_CAPACITY)
        # Per-op RPC counter in the process-global registry (declared
        # before the first call below).
        self._m_calls = obs.get_registry().counter(
            "engine_remote_calls_total", "framed RPC round trips by op", ("kind",)
        )
        self.server_info: Dict = {}
        self.catalog: Optional[Catalog] = None
        try:
            # The first round trip opens a socket, and with it the
            # handshake that fills server_info and the catalog.
            self.ping()
        except BaseException:
            self.close()
            raise
        # The planner's defaults, as the server's engine costs with them.
        self._enumerator = PlanEnumerator(
            CardinalityEstimator(self.catalog.statistics), CostModel(), self.catalog.has_index
        )

    # ------------------------------------------------------------------
    # RPC plumbing
    # ------------------------------------------------------------------
    def _acquire(self) -> _Connection:
        """A pooled connection with its lock held (free one, else round-robin)."""
        for conn in self._pool:
            if conn.lock.acquire(blocking=False):
                return conn
        with self._rr_lock:
            self._rr = (self._rr + 1) % len(self._pool)
            conn = self._pool[self._rr]
        conn.lock.acquire()
        return conn

    def _call(self, kind: str, payload, ctxs=None):
        """One framed RPC round trip with bounded reconnect.

        The connection lock is held across the full send→recv: a frame on
        the wire is never interleaved with another thread's.  Dropped
        connections reconnect up to ``max_reconnects`` times — safe because
        every engine RPC is idempotent — then raise :class:`RemoteEngineError`
        (:class:`RemoteTimeoutError` when every attempt timed out).
        Connection refused fails fast with no retries, and
        :class:`FrameCorruptionError` propagates immediately.

        ``ctxs`` (aligned with a ``plan_many`` payload's queries) rides
        the frame as wire dicts, so the server enforces deadlines too.

        Tracing: when any context carries a ``trace_id``, a
        ``remote.call`` span wraps the round trip, the wire contexts are
        re-parented on it (so server-side spans nest correctly), and the
        spans the server piggybacked on the reply are ingested into this
        process's tracer.  An untraced call sends the same frame bytes
        whether tracing is on or off.
        """
        self._check_open()
        self._m_calls.labels(kind=kind).inc()
        span = obs.span_for_ctxs("remote.call", ctxs, attrs={"kind": kind, "url": self.url})
        if span.span_id is not None:
            ctxs = [
                ctx.with_parent_span(span.span_id)
                if ctx is not None and ctx.trace_id
                else ctx
                for ctx in ctxs
            ]
        if ctxs is not None and all(ctx is None for ctx in ctxs):
            ctxs = None
        request = encode_request(kind, payload, contexts_to_wire(ctxs))
        if len(request) > self.max_frame_bytes:
            # Rejected before a connection is touched: nothing reached the
            # wire, so no healthy pooled socket should be dropped for it.
            raise FrameTooLargeError(
                f"request {kind!r} encodes to {len(request)} bytes "
                f"(max_frame_bytes={self.max_frame_bytes})"
            )
        conn = self._acquire()
        try:
            attempts = 0
            while True:
                try:
                    if conn.ensure():
                        # Every fresh socket re-runs the handshake: a
                        # transparent reconnect is exactly the moment the
                        # peer may have been restarted with other code or
                        # drifted datagen, and serving across that would
                        # silently break the determinism contract.
                        self._handshake(conn)
                    # Blocks with the connection lock held, on purpose: the
                    # lock spans one full framed send→recv so concurrent
                    # tenants never interleave bytes on a socket (pipe
                    # discipline, class docstring).  The socket timeout
                    # bounds the wait.
                    response_bytes = conn.round_trip(request)
                    break
                except FrameCorruptionError:
                    # The stream cannot be trusted any more, but the error
                    # itself must surface — corruption is not a transient.
                    conn.drop()
                    raise
                except ConnectionRefusedError as exc:
                    # Nobody is listening at the address.  Backing off and
                    # retrying cannot make a server appear, so fail fast
                    # instead of burning the reconnect budget.
                    conn.drop()
                    raise RemoteEngineError(
                        f"engine RPC {kind!r} to {self.url}: connection "
                        f"refused — no server listening (not retrying): "
                        f"{exc!r}"
                    ) from exc
                except TimeoutError as exc:
                    # socket.timeout is TimeoutError; caught before the
                    # OSError clause below so exhausted retries surface as
                    # the retryable RemoteTimeoutError, not the generic
                    # (non-transient) RemoteEngineError.
                    conn.drop()
                    attempts += 1
                    if attempts > self.max_reconnects:
                        raise RemoteTimeoutError(
                            f"engine RPC {kind!r} to {self.url} timed out "
                            f"after {attempts} attempt(s) "
                            f"(timeout_s={self.timeout_s}): {exc!r}"
                        ) from exc
                    time.sleep(self.reconnect_backoff_s * attempts)
                except (ConnectionError, EOFError, OSError) as exc:
                    conn.drop()
                    attempts += 1
                    if attempts > self.max_reconnects:
                        raise RemoteEngineError(
                            f"engine RPC {kind!r} to {self.url} failed after "
                            f"{attempts} attempt(s): {exc!r}"
                        ) from exc
                    time.sleep(self.reconnect_backoff_s * attempts)
        finally:
            conn.lock.release()
        # A transport error above abandons the open span (never recorded —
        # the tracer holds no reference to open spans, so nothing leaks).
        status, body = self._decode_reply(response_bytes)
        if status != "ok":
            span.end(status="error")
            raise RemoteEngineError(f"remote engine at {self.url}: {body}")
        result, executions, spans = body
        if spans:
            obs.get_tracer().ingest(spans)
        span.end()
        with self._state_lock:
            # Monotonic merge: responses from different pooled connections
            # can land out of order.
            self._remote_executions = max(self._remote_executions, executions)
        return result

    def _handshake(self, conn: _Connection) -> None:
        """Check a fresh socket's server: same protocol, recipe and dataset.

        The first hello's catalog becomes the client's, and every later
        one must carry its fingerprint.  Records the hello, less its
        catalog, as ``server_info``.  Connection errors propagate to the
        caller's reconnect loop; a refusal drops the socket and is
        terminal.
        """
        hello = conn.round_trip(encode_request("fingerprint", None, None))
        status, body = self._decode_reply(hello)
        if status != "ok":
            conn.drop()
            raise RemoteEngineError(f"remote engine at {self.url}: {body}")
        # The hello is slot 0 of the reply, and reading it assumes nothing
        # else about the shape: a server of another version is refused for
        # the version it advertises, not for a reply this client misreads.
        info = body[0] if type(body) is list and body else None
        if type(info) is not dict:
            conn.drop()
            raise RemoteEngineError(f"engine at {self.url} sent a malformed hello")
        if info.get("protocol") != PROTOCOL_VERSION:
            conn.drop()
            raise RemoteEngineError(
                f"engine at {self.url} speaks wire protocol "
                f"{info.get('protocol')!r}, this client speaks only "
                f"{PROTOCOL_VERSION}; run client and server from the same "
                f"release"
            )
        recipe = info.get("workload")
        if self.spec is not None and recipe and recipe != dataclasses.asdict(self.spec):
            conn.drop()
            raise RemoteEngineError(
                f"engine at {self.url} serves the workload {recipe!r}, "
                f"but this client expects {self.spec}"
            )
        try:
            catalog = Catalog.from_wire(info.get("catalog"))
        except ValueError as exc:
            conn.drop()
            raise RemoteEngineError(f"engine at {self.url}: {exc}") from None
        if self.catalog is not None and catalog.fingerprint != self.catalog.fingerprint:
            conn.drop()
            raise RemoteEngineError(
                f"dataset fingerprint mismatch against {self.url}: the server "
                f"serves {catalog.fingerprint} but this client holds the catalog "
                f"of {self.catalog.fingerprint} (a server restarted with other "
                f"data or datagen drift, or another server at this address)"
            )
        if self.catalog is None:
            self.catalog = catalog
        self.server_info = {key: value for key, value in info.items() if key != "catalog"}

    def _decode_reply(self, payload: bytes):
        """``(status, body)`` of a reply frame; a reply that is not one is corruption."""
        try:
            return decode_reply(payload)
        except ValueError as exc:
            raise FrameCorruptionError(
                f"engine at {self.url} sent a malformed reply: {exc}"
            ) from exc

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("RemoteBackend is closed")

    # ------------------------------------------------------------------
    # metadata: read off the server's catalog, no round trip
    # ------------------------------------------------------------------
    @property
    def executions(self) -> int:
        """Real executions: the server's counter as of its last reply."""
        with self._state_lock:
            return self._remote_executions

    def sql(self, text: str, name: str = "") -> Query:
        # Parse/bind reads only the server's catalog, and the query's text
        # is what crosses the wire for the server to bind the same way.
        key = (text, name)
        query = self._statement_cache.get(key)
        if query is not None:
            return query
        return self._statement_cache.put(key, bind_statement(self.catalog, text, name))

    def explain(self, plan: Plan) -> str:
        return explain(plan)

    def join_space(self, query: Query) -> JoinSpace:
        # Built over the server's statistics and indexes, so the
        # constructive baselines search its space without a round trip.
        key = query.key()
        space = self._join_spaces.get(key)
        if space is not None:
            return space
        return self._join_spaces.put(key, self._enumerator.join_space(query))

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(
        self, query: Query, options: Optional[OptimizerOptions] = None
    ) -> PlanningResult:
        return self.plan_many([query], options)[0]

    def plan_many(
        self,
        queries: Sequence[Query],
        options: Optional[OptimizerOptions] = None,
        ctxs=None,
    ) -> List[Optional[PlanningResult]]:
        # Client-side enforcement: an expired item never costs a frame.
        return run_live(
            queries,
            ctxs,
            lambda live, live_ctxs: self._plan_live(live, options, live_ctxs),
            _no_result,
        )

    def _plan_live(self, queries, options, ctxs) -> List[PlanningResult]:
        # Each item carries its context, so a missed key ships with the
        # context it was first seen with.
        def fetch(misses):
            results = self._call(
                "plan_many",
                ([query_to_wire(query) for query, _ in misses], options_to_wire(options)),
                ctxs=[ctx for _, ctx in misses],
            )
            return [
                _planning_from_wire(result, query)
                for result, (query, _) in zip(results, misses)
            ]

        keys = [plan_key(query, options) for query in queries]
        return self._plan_memo.many(keys, zip(queries, ctxs or repeat(None)), fetch)

    def plan_with_hints(
        self,
        query: Query,
        join_order: Sequence[str],
        join_methods: Sequence[str],
    ) -> PlanningResult:
        return self.plan_with_hints_many([(query, join_order, join_methods)])[0]

    def plan_with_hints_many(
        self, requests: Sequence[Tuple[Query, Sequence[str], Sequence[str]]]
    ) -> List[PlanningResult]:
        def fetch(misses):
            results = self._call(
                "hint_many",
                [(query_to_wire(query), order, methods) for query, order, methods in misses],
            )
            return [
                _planning_from_wire(result, request[0])
                for result, request in zip(results, misses)
            ]

        normalized = [
            (query, tuple(join_order), tuple(join_methods))
            for query, join_order, join_methods in requests
        ]
        keys = [(query.key(), order, methods) for query, order, methods in normalized]
        return self._hint_memo.many(keys, normalized, fetch)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self,
        query: Query,
        plan: Plan,
        timeout_ms: Optional[float] = None,
    ) -> ExecutionResult:
        return self.execute_many([(query, plan, timeout_ms)])[0]

    def execute_many(
        self, requests: Sequence[Tuple[Query, Plan, Optional[float]]]
    ) -> List[ExecutionResult]:
        results = self._call(
            "execute_many",
            [
                (query_to_wire(query), plan_to_wire(plan), timeout_ms)
                for query, plan, timeout_ms in requests
            ],
        )
        return [execution_from_wire(result) for result in results]

    def original_latency(self, query: Query) -> float:
        planning = self.plan(query)
        return self.execute(query, planning.plan).latency_ms

    # ------------------------------------------------------------------
    # cache control / stats
    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        self._statement_cache.clear()
        self._join_spaces.clear()
        self._plan_memo.clear()
        self._hint_memo.clear()
        self._call("clear_caches", None)

    def stats(self) -> Dict[str, float]:
        server = self._call("stats", None)
        return {
            "backend": "remote",
            "url": self.url,
            "connections": len(self._pool),
            "executions": self.executions,
            "plan_memo": len(self._plan_memo),
            "hint_memo": len(self._hint_memo),
            "statement_cache": len(self._statement_cache),
            "server_backend": server.get("backend"),
            "server_executions": server.get("executions"),
        }

    def ping(self) -> bool:
        """One round trip against the live server (health check)."""
        self._call("ping", None)
        return True

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop every pooled connection; idempotent."""
        if self._closed:
            return
        self._closed = True
        for conn in self._pool:
            # Don't wait on in-flight round trips: dropping a socket the
            # server side is mid-write on is safe (the server tolerates
            # client disconnects), and close must never hang.
            conn.drop()

    def __enter__(self) -> "RemoteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC ordering varies
        try:
            self.close()
        except Exception:
            pass
