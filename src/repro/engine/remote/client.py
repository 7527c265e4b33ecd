"""``RemoteBackend``: the ``EngineBackend`` protocol over a TCP socket.

The client keeps an in-process :class:`~repro.engine.database.Database`
for cheap, deterministic work that never needs the wire — SQL parse/bind,
schema/statistics metadata, EXPLAIN; planning and execution RPCs travel to
a ``repro-engine`` server as length-prefixed, crc32-checksummed frames of
plain-data JSON (:mod:`repro.engine.wire`).  A query crosses as the SQL
text it was bound from and a plan as a descriptor of numbers and names;
the client rebuilds each reply's plan over the query object it sent, so a
remote plan is ``==`` to the local one without planning here.

Concurrency: a small pool of connections, each guarded by a lock held
across one full send→recv round trip, so concurrent tenants (e.g. a
:class:`~repro.api.group.ServiceGroup` sharing one ``RemoteBackend``)
pipeline whole batches without interleaving bytes on a socket.
``*_many`` calls ship as single frames — one round trip per batch, not per
item — and planning RPCs are memoized client-side (:class:`PlanningMemo`).

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

Every fresh socket opens with the fingerprint handshake: the client
refuses a server that speaks another wire protocol version, and one whose
dataset fingerprint differs from its own mirror's (datagen drift) — the
same crc32 fingerprint the session manifest records.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.engine.context import deadline_error, run_live
from repro.engine.database import (
    Database,
    Dataset,
    PlanningResult,
    context_expired,
    dataset_fingerprint,
    plan_key,
)
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
from repro.optimizer.dp import JoinSpace, OptimizerOptions
from repro.optimizer.plans import PlanNode, plan_signature
from repro.sql.ast import Query


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
    or a client/server dataset mismatch)."""


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


class PlanningMemo:
    """A thread-safe bounded-LRU memo for deterministic planning RPCs.

    :class:`RemoteBackend` keeps client-side memos for the two planning
    calls: episode loops revisit the same queries and one-step hint edits
    constantly, and a memo hit skips the RPC round trip entirely.  The lock
    is never held across an RPC — two threads missing the same key both
    fetch, and because engine results are pure functions of the dataset the
    duplicate insert is identical.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._memo: "OrderedDict" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memo)

    def lookup(self, keys: Sequence, requests: Sequence):
        """Split a batch into hits and (deduplicated) misses.

        Returns ``(resolved, miss_keys, miss_requests)``: ``resolved`` maps
        every distinct key to its cached result (misses hold a ``None``
        placeholder the caller fills after fetching).
        """
        resolved: Dict = {}
        miss_keys: List = []
        miss_requests: List = []
        with self._lock:
            for key, request in zip(keys, requests):
                if key in resolved:
                    continue
                hit = self._memo.get(key)
                if hit is not None:
                    self._memo.move_to_end(key)
                    resolved[key] = hit
                else:
                    resolved[key] = None  # placeholder, filled by the caller
                    miss_keys.append(key)
                    miss_requests.append(request)
        return resolved, miss_keys, miss_requests

    def fill(self, keys: Sequence, results: Sequence) -> None:
        """Insert fetched results, evicting LRU entries at the cap.

        ``None`` results (a deadline expired before the server reached the
        item, so no result exists) are never cached — the same key fetched
        with budget to spare must still produce a real entry.
        """
        if self.capacity <= 0:
            return
        with self._lock:
            for key, result in zip(keys, results):
                if result is None:
                    continue
                if key in self._memo:
                    # A concurrent miss already inserted the identical
                    # result; just bump its recency.
                    self._memo.move_to_end(key)
                else:
                    while len(self._memo) >= self.capacity:
                        self._memo.popitem(last=False)
                self._memo[key] = result

    def clear(self) -> None:
        with self._lock:
            self._memo.clear()


class RemoteBackend:
    """An ``EngineBackend`` served by a ``repro-engine`` TCP server.

    ``spec``/``database`` mirror the dataset client-side (at least one is
    required): ``database`` reuses an already-built engine (what
    :func:`~repro.engine.backend.make_backend` does with the workload's),
    ``spec`` rebuilds one.  The mirror serves metadata/SQL binding and
    anchors the connect-time fingerprint handshake against the server.
    """

    def __init__(
        self,
        url: str,
        *,
        spec=None,
        database: Optional[Database] = None,
        pool_size: int = 2,
        timeout_s: float = 120.0,
        max_reconnects: int = 2,
        reconnect_backoff_s: float = 0.05,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        if database is None and spec is None:
            raise ValueError("RemoteBackend needs a spec or a prebuilt database")
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.url = url
        self._host, self._port = parse_engine_url(url)
        self.spec = spec
        self.local = database if database is not None else spec.build_database()
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
        self._plan_memo = PlanningMemo(self.local.hint_cache_capacity)
        self._hint_memo = PlanningMemo(self.local.hint_cache_capacity)
        # Per-op RPC counter in the process-global registry (declared
        # before the first call below).
        self._m_calls = obs.get_registry().counter(
            "engine_remote_calls_total", "framed RPC round trips by op", ("kind",)
        )
        self._fingerprint = dataset_fingerprint(self.local.dataset)
        self.server_info: Dict = {}
        self.remote_fingerprint: Optional[str] = None
        try:
            # The first round trip opens a socket, and with it the
            # handshake that fills server_info and remote_fingerprint.
            self.ping()
        except BaseException:
            self.close()
            raise

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

        ``ctxs`` (aligned with the items of a ``*_many`` payload) rides
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
                    # pipe discipline: the connection lock spans one full
                    # framed send→recv so concurrent tenants never
                    # interleave bytes on a socket (class docstring).
                    response_bytes = conn.round_trip(request)  # repro-lint: allow[lock-blocking]
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
        """Check a fresh socket's server: same protocol, same dataset.

        Records the server's hello as ``server_info`` and
        ``remote_fingerprint``.  Connection errors propagate to the
        caller's reconnect loop; a mismatch drops the socket and is
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
        info = body[0]
        if info.get("protocol") != PROTOCOL_VERSION:
            conn.drop()
            raise RemoteEngineError(
                f"engine at {self.url} speaks wire protocol "
                f"{info.get('protocol')!r}, this client speaks only "
                f"{PROTOCOL_VERSION}; run client and server from the same "
                f"release"
            )
        actual = info["dataset_fingerprint"]
        if actual != self._fingerprint:
            conn.drop()
            raise RemoteEngineError(
                f"dataset fingerprint mismatch against {self.url}: the server "
                f"serves {actual} but this client's dataset is "
                f"{self._fingerprint} (datagen drift, or a server restarted "
                f"with different datagen); client and server must build the "
                f"same workload (name/scale/seed) with the same datagen code"
            )
        self.server_info = info
        self.remote_fingerprint = actual

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
    # metadata: served by the client-side mirror engine
    # ------------------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        return self.local.dataset

    @property
    def schema(self):
        return self.local.schema

    @property
    def statistics(self):
        return self.local.statistics

    @property
    def storage(self):
        return self.local.storage

    @property
    def executions(self) -> int:
        """Real executions: the server's counter plus any local fallbacks."""
        with self._state_lock:
            remote = self._remote_executions
        return self.local.executions + remote

    def sql(self, text: str, name: str = "") -> Query:
        # Parse/bind is a pure function of the (identical, fingerprint-
        # checked) schema: the mirror binds, and the query's text is what
        # crosses the wire for the server to bind the same way.
        return self.local.sql(text, name=name)

    def explain(self, plan: PlanNode) -> str:
        return self.local.explain(plan)

    def join_space(self, query: Query) -> JoinSpace:
        # The mirror's statistics are the server's (fingerprint-checked), so
        # the constructive baselines search its space without a round trip.
        return self.local.join_space(query)

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    @staticmethod
    def _ctx_for_misses(keys, ctxs, miss_keys):
        """First-seen context per missed memo key, aligned with ``miss_keys``."""
        if ctxs is None:
            return None
        ctx_by_key: Dict = {}
        for key, ctx in zip(keys, ctxs):
            ctx_by_key.setdefault(key, ctx)
        return [ctx_by_key.get(key) for key in miss_keys]

    def plan(
        self, query: Query, options: Optional[OptimizerOptions] = None, ctx=None
    ) -> PlanningResult:
        if context_expired(ctx):
            raise deadline_error(ctx, "planning")
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
        keys = [plan_key(query, options) for query in queries]
        resolved, miss_keys, miss_queries = self._plan_memo.lookup(keys, queries)
        if miss_queries:
            results = self._call(
                "plan_many",
                ([query_to_wire(query) for query in miss_queries], options_to_wire(options)),
                ctxs=self._ctx_for_misses(keys, ctxs, miss_keys),
            )
            results = [
                _planning_from_wire(result, query)
                for result, query in zip(results, miss_queries)
            ]
            self._plan_memo.fill(miss_keys, results)
            for key, result in zip(miss_keys, results):
                resolved[key] = result
        return [resolved[key] for key in keys]

    def plan_with_hints(
        self,
        query: Query,
        join_order: Sequence[str],
        join_methods: Sequence[str],
        ctx=None,
    ) -> PlanningResult:
        if context_expired(ctx):
            raise deadline_error(ctx, "hint completion")
        return self.plan_with_hints_many([(query, join_order, join_methods)])[0]

    def plan_with_hints_many(
        self,
        requests: Sequence[Tuple[Query, Sequence[str], Sequence[str]]],
        ctxs=None,
    ) -> List[Optional[PlanningResult]]:
        return run_live(requests, ctxs, self._plan_with_hints_live, _no_result)

    def _plan_with_hints_live(self, requests, ctxs) -> List[PlanningResult]:
        normalized = [
            (query, tuple(join_order), tuple(join_methods))
            for query, join_order, join_methods in requests
        ]
        memo_keys = [
            (query.signature(), join_order, join_methods)
            for query, join_order, join_methods in normalized
        ]
        resolved, miss_keys, miss_requests = self._hint_memo.lookup(memo_keys, normalized)
        if miss_requests:
            results = self._call(
                "hint_many",
                [
                    (query_to_wire(query), join_order, join_methods)
                    for query, join_order, join_methods in miss_requests
                ],
                ctxs=self._ctx_for_misses(memo_keys, ctxs, miss_keys),
            )
            results = [
                _planning_from_wire(result, request[0])
                for result, request in zip(results, miss_requests)
            ]
            self._hint_memo.fill(miss_keys, results)
            for memo_key, result in zip(miss_keys, results):
                resolved[memo_key] = result
        return [resolved[memo_key] for memo_key in memo_keys]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self,
        query: Query,
        plan: PlanNode,
        timeout_ms: Optional[float] = None,
        ctx=None,
    ) -> ExecutionResult:
        if context_expired(ctx):
            raise deadline_error(ctx, "execution")
        return self.execute_many([(query, plan, timeout_ms)])[0]

    def execute_many(
        self,
        requests: Sequence[Tuple[Query, PlanNode, Optional[float]]],
        ctxs=None,
    ) -> List[Optional[ExecutionResult]]:
        return run_live(requests, ctxs, self._execute_live, _no_result)

    def _execute_live(self, requests, ctxs) -> List[Optional[ExecutionResult]]:
        results = self._call(
            "execute_many",
            [
                (query_to_wire(query), plan_to_wire(plan), timeout_ms)
                for query, plan, timeout_ms in requests
            ],
            ctxs=ctxs,
        )
        return [execution_from_wire(result) for result in results]

    def original_latency(self, query: Query) -> float:
        planning = self.plan(query)
        return self.execute(query, planning.plan).latency_ms

    # ------------------------------------------------------------------
    # cache control / stats
    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        self.local.clear_caches()
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
            "statement_cache": self.local.stats()["statement_cache"],
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
