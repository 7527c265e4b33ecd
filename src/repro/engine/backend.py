"""Pluggable engine backends: the narrow interface FOSS talks to.

Everything above the engine (planner, environments, trainer, baselines,
experiment harness) depends on :class:`EngineBackend` — roughly
``sql / plan / complete-hint / execute / stats`` plus their batch mirrors —
never on a concrete engine class.  Three implementations ship (the third,
:class:`~repro.engine.remote.client.RemoteBackend`, lives in
:mod:`repro.engine.remote` and talks to a ``repro-engine`` server over a
TCP socket):

* :class:`LocalBackend` — the in-process expert engine (identical to
  :class:`~repro.engine.database.Database`, which itself satisfies the
  protocol; the subclass exists so call sites can name the local
  implementation explicitly and build one from a spec).
* :class:`ShardedBackend` — a multiprocessing worker pool.  Each worker
  rebuilds the dataset deterministically from a picklable
  :class:`~repro.workloads.base.WorkloadSpec` and serves
  plan / complete-hint / execute RPCs with its own caches.  Batch calls are
  routed by request key (CRC of the query/plan signature), so repeat visits
  to the same ICP or plan land on the same worker and stay cache-hot.

Determinism: the engine is a pure function of the dataset (virtual-time
execution, deterministic DP enumeration, seeded statistics), and workers
rebuild that dataset from the same spec — so every backend returns bitwise
identical plans and latencies for the same request, regardless of worker
count.  Trajectory parity across ``engine_workers`` follows (see
``tests/test_sharding.py``).
"""

from __future__ import annotations

import multiprocessing
import threading
import zlib
from collections import OrderedDict
from typing import (
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro import obs
from repro.engine.database import (
    Database,
    Dataset,
    PlanningResult,
    context_expired,
    plan_key,
    raise_deadline,
)
from repro.executor.engine import ExecutionResult
from repro.optimizer.dp import OptimizerOptions
from repro.optimizer.plans import PlanNode, plan_signature
from repro.sql.ast import Query


@runtime_checkable
class EngineBackend(Protocol):
    """What the rest of the system may ask of an expert engine.

    Batch methods (``*_many``) are first-class: the lockstep episode runner
    raises one batch call per cohort phase, which a sharded backend fans out
    across workers and a local backend resolves in a loop.

    Every planning/execution entry point accepts an optional request
    context (``ctx`` on singletons, an aligned ``ctxs`` sequence on batch
    mirrors; see :class:`repro.api.context.RequestContext`).  ``None`` —
    the default — keeps every existing caller source-compatible and the
    results bitwise-identical.  A singleton with an expired context raises
    ``DeadlineExceededError``; a batch checks each item immediately before
    its slice of work and returns ``None`` in expired slots.
    """

    # -- metadata ------------------------------------------------------
    @property
    def dataset(self) -> Dataset: ...
    @property
    def schema(self): ...
    @property
    def statistics(self): ...
    @property
    def executions(self) -> int: ...

    # -- SQL entry point ----------------------------------------------
    def sql(self, text: str, name: str = "") -> Query: ...

    # -- planning (Γp(Q, /) and Γp(Q, ICP)) ---------------------------
    def plan(
        self, query: Query, options: Optional[OptimizerOptions] = None, ctx=None
    ) -> PlanningResult: ...

    def plan_many(
        self,
        queries: Sequence[Query],
        options: Optional[OptimizerOptions] = None,
        ctxs=None,
    ) -> List[Optional[PlanningResult]]: ...

    def plan_with_hints(
        self,
        query: Query,
        join_order: Sequence[str],
        join_methods: Sequence[str],
        ctx=None,
    ) -> PlanningResult: ...

    def plan_with_hints_many(
        self,
        requests: Sequence[Tuple[Query, Sequence[str], Sequence[str]]],
        ctxs=None,
    ) -> List[Optional[PlanningResult]]: ...

    # -- execution (Ψp) -----------------------------------------------
    def execute(
        self,
        query: Query,
        plan: PlanNode,
        timeout_ms: Optional[float] = None,
        use_cache: bool = True,
        ctx=None,
    ) -> ExecutionResult: ...

    def execute_many(
        self,
        requests: Sequence[Tuple[Query, PlanNode, Optional[float]]],
        ctxs=None,
    ) -> List[Optional[ExecutionResult]]: ...

    def original_latency(self, query: Query) -> float: ...

    # -- introspection -------------------------------------------------
    def explain(self, plan: PlanNode) -> str: ...
    def clear_caches(self) -> None: ...
    def stats(self) -> Dict[str, float]: ...


class LocalBackend(Database):
    """The in-process engine, behavior-identical to :class:`Database`."""

    @classmethod
    def from_spec(cls, spec) -> "LocalBackend":
        """Build from a :class:`~repro.workloads.base.WorkloadSpec`."""
        return cls(spec.build_dataset())


class PlanningMemo:
    """A thread-safe bounded-LRU memo for deterministic planning RPCs.

    Both out-of-process backends (:class:`ShardedBackend` over pipes,
    :class:`~repro.engine.remote.client.RemoteBackend` over sockets) keep
    caller-side memos for the two planning calls: episode loops revisit the
    same queries and one-step hint edits constantly, and a memo hit skips
    the IPC/RPC round trip entirely.  The lock is never held across IPC —
    two threads missing the same key both fetch, and because engine results
    are pure functions of the dataset the duplicate insert is identical.
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

        ``None`` results (a deadline expired before the worker reached the
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


# ----------------------------------------------------------------------
# sharded backend
# ----------------------------------------------------------------------

def _engine_worker_main(conn, spec) -> None:
    """Worker loop: rebuild the engine from the spec, serve batch RPCs.

    Responses are ``("ok", (payload, executions))`` — the cumulative
    execution count rides along so the parent can aggregate cache-miss
    statistics without an extra round trip — or ``("err", message)``.
    """
    try:
        database = spec.build_database()
    except Exception as exc:  # pragma: no cover - startup failure path
        conn.send(("err", f"worker failed to build engine: {exc!r}"))
        conn.close()
        return
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        if message is None:
            break
        kind, payload = message
        try:
            if kind == "ping":
                result = None
            elif kind == "plan_many":
                queries, options, ctxs = payload
                result = database.plan_many(queries, options, ctxs=ctxs)
            elif kind == "hint_many":
                requests, ctxs = payload
                result = database.plan_with_hints_many(requests, ctxs=ctxs)
            elif kind == "execute_many":
                requests, ctxs = payload
                result = database.execute_many(requests, ctxs=ctxs)
            elif kind == "clear_caches":
                database.clear_caches()
                result = None
            else:
                raise ValueError(f"unknown engine RPC {kind!r}")
            conn.send(("ok", (result, database.executions)))
        except Exception as exc:
            conn.send(("err", f"{kind} failed: {exc!r}"))
    conn.close()


class ShardedBackend:
    """A worker-pool engine: batch calls fan out across CPU cores.

    The parent keeps a local :class:`Database` for metadata (schema,
    statistics, SQL binding, EXPLAIN) and as the fallback for singleton
    calls that never enter the hot path.  Heavy batch calls — hinted-plan
    completion and plan execution — are scattered to workers, routed by
    request key so each worker's caches stay hot for its shard of the key
    space.  Completed hint plans are additionally memoized parent-side
    (bounded LRU) because episode loops revisit the same one-step edits
    constantly.

    The request path is thread-safe: each worker pipe is guarded by a lock
    held across one full send→recv round trip, and a scatter acquires the
    locks of every worker it touches (in worker order, so concurrent
    scatters cannot deadlock) before sending anything.  Two tenants whose
    requests route to disjoint workers proceed fully in parallel;
    overlapping requests queue per worker instead of interleaving on the
    pipe — the PR-2 error-drain contract ("a response left unread would
    answer the next, unrelated request") now holds under concurrency.
    Parent-side memos sit behind their own lock, never held across IPC.
    """

    def __init__(
        self,
        spec,
        num_workers: int,
        database: Optional[Database] = None,
        start_method: Optional[str] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.spec = spec
        self.num_workers = num_workers
        self.local = database if database is not None else spec.build_database()
        if start_method is None:
            start_method = (
                "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
            )
        ctx = multiprocessing.get_context(start_method)
        self._conns = []
        self._procs = []
        self._closed = False
        self._worker_executions = [0] * num_workers
        # One lock per worker pipe, held across a full send→recv round
        # trip; a multi-worker call takes its locks in worker order.
        self._worker_locks = [threading.Lock() for _ in range(num_workers)]
        # How long close() waits for an in-flight round trip before
        # reclaiming the worker by force (tests shrink this).  Assigned
        # before any spawn so the close() in the failure paths below
        # finds it.
        self.close_grace_s = 30.0
        for _ in range(num_workers):
            parent_conn, child_conn = ctx.Pipe()
            try:
                proc = ctx.Process(
                    target=_engine_worker_main, args=(child_conn, spec), daemon=True
                )
                proc.start()
            except BaseException:
                parent_conn.close()
                child_conn.close()
                self.close()
                raise
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        # Block until every worker has rebuilt its engine, so the first
        # batch call measures steady-state throughput, not startup.
        try:
            for worker in range(num_workers):
                self._conns[worker].send(("ping", None))
            startup_error: Optional[Exception] = None
            for worker in range(num_workers):
                _result, error = self._recv(worker)
                startup_error = startup_error or error
        except BaseException:
            self.close()
            raise
        if startup_error is not None:
            self.close()
            raise startup_error
        # Parent-side memos for the two planning RPCs (see PlanningMemo).
        self._plan_memo = PlanningMemo(self.local.hint_cache_capacity)
        self._hint_memo = PlanningMemo(self.local.hint_cache_capacity)

    # ------------------------------------------------------------------
    # pool plumbing
    # ------------------------------------------------------------------
    def _recv(self, worker: int):
        """Read one response; returns (result, error).

        Callers awaiting several workers must drain *every* pending
        response before raising — a response left unread would answer the
        next, unrelated request and silently misalign all later results.
        """
        try:
            status, payload = self._conns[worker].recv()
        except (EOFError, OSError) as exc:
            return None, RuntimeError(f"engine worker {worker} died: {exc!r}")
        if status != "ok":
            return None, RuntimeError(f"engine worker {worker}: {payload}")
        result, executions = payload
        self._worker_executions[worker] = executions
        return result, None

    def _route(self, key: str) -> int:
        return zlib.crc32(key.encode("utf-8")) % self.num_workers

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ShardedBackend is closed")

    def _scatter(
        self, kind: str, items: Sequence, keys: Sequence[str], ctxs=None
    ) -> List:
        """Send each item to the worker owning its key; gather in order.

        The involved workers' locks are all acquired (in worker order)
        before the first send, so a concurrent scatter from another thread
        cannot interleave its requests onto a pipe mid-round-trip; fan-out
        parallelism across the workers of *this* call is preserved because
        every send happens before the first recv.

        ``ctxs`` (aligned with ``keys``) rides along in each worker's
        payload: the monotonic clock is machine-wide, so workers compare
        the parent's deadlines directly and skip items that expired while
        the scatter was in flight (``None`` in their slots).
        """
        self._check_open()
        # Traced batches get an ``engine.scatter`` span covering the full
        # fan-out/gather; the workers' own spans live in their processes'
        # tracers (pipes don't ship them back), so this is the engine-side
        # leaf of a cross-process trace.
        span = obs.span_for_ctxs(
            "engine.scatter", ctxs, attrs={"op": kind, "batch": len(keys)}
        )
        groups: Dict[int, List[int]] = {}
        for index, key in enumerate(keys):
            groups.setdefault(self._route(key), []).append(index)
        workers = sorted(groups)
        for worker in workers:
            self._worker_locks[worker].acquire()
        try:
            # Track which workers actually received a request: if a send
            # fails partway (e.g. a worker died and its pipe broke), the
            # earlier workers still owe a response, and leaving it unread
            # would answer the next, unrelated request — so the error path
            # drains every worker that was sent to before raising.
            sent: List[int] = []
            first_error: Optional[Exception] = None
            for worker in workers:
                indices = groups[worker]
                sub_ctxs = None if ctxs is None else [ctxs[i] for i in indices]
                if kind == "plan_many":
                    queries, options = items
                    payload = ([queries[i] for i in indices], options, sub_ctxs)
                else:
                    payload = ([items[i] for i in indices], sub_ctxs)
                try:
                    # pipe discipline: the worker lock is deliberately held
                    # across the full send→recv round trip (class docstring).
                    self._conns[worker].send((kind, payload))  # repro-lint: allow[lock-blocking]
                except (BrokenPipeError, OSError, ValueError) as exc:
                    first_error = RuntimeError(
                        f"engine worker {worker} unreachable: {exc!r}"
                    )
                    break
                sent.append(worker)
            out: List = [None] * len(keys)
            for worker in sent:
                # pipe discipline: the gather must drain every pipe while
                # its round trip's lock is still held (drain contract).
                results, error = self._recv(worker)  # repro-lint: allow[lock-blocking]
                if error is not None:
                    first_error = first_error or error
                    continue
                for index, result in zip(groups[worker], results):
                    out[index] = result
        finally:
            for worker in workers:
                self._worker_locks[worker].release()
        if first_error is not None:
            span.end(status="error")
            raise first_error
        span.end()
        return out

    def _broadcast(self, kind: str) -> None:
        self._check_open()
        for lock in self._worker_locks:
            lock.acquire()
        try:
            for worker in range(self.num_workers):
                # pipe discipline: broadcast holds every worker lock across
                # its full send→recv round trip (class docstring).
                self._conns[worker].send((kind, None))  # repro-lint: allow[lock-blocking]
            first_error: Optional[Exception] = None
            for worker in range(self.num_workers):
                _result, error = self._recv(worker)  # repro-lint: allow[lock-blocking]
                first_error = first_error or error
        finally:
            for lock in self._worker_locks:
                lock.release()
        if first_error is not None:
            raise first_error

    def close(self) -> None:
        """Shut the pool down; idempotent, and safe under wedged clients.

        Worker locks are taken (with ``close_grace_s``, so a wedged
        in-flight call — e.g. a serving thread whose remote client
        disconnected mid-request and never returned — cannot hang shutdown
        forever) before the goodbye message, so close does not interleave
        with a scatter another thread is mid-way through.  The default
        grace is generous — a healthy in-flight batch of slow executions
        can legitimately take many seconds — because shooting down a live
        round trip misreports it as a dead worker.  A worker whose lock
        never frees is reclaimed by force: its process is terminated and
        its parent pipe closed, so an abandoned round trip cannot leak a
        process or a file descriptor.
        """
        if self._closed:
            return
        self._closed = True
        wedged = False
        for worker, conn in enumerate(self._conns):
            acquired = self._worker_locks[worker].acquire(timeout=self.close_grace_s)
            try:
                if acquired:
                    # The goodbye rides under the worker lock so it cannot
                    # interleave with a scatter another thread is mid-way
                    # through; the acquire above is already grace-bounded.
                    conn.send(None)  # repro-lint: allow[lock-blocking]
                # else: a round trip is still in flight after the grace
                # period; sending now would corrupt it mid-recv.  The
                # terminate below reclaims the worker instead (EOF on the
                # worker pipe also unblocks the abandoned _recv).
            except (BrokenPipeError, OSError):
                pass
            finally:
                if acquired:
                    self._worker_locks[worker].release()
                else:
                    wedged = True
        for proc in self._procs:
            # A wedged pool cannot count on the goodbye being read — skip
            # straight to terminate instead of burning the join timeout.
            proc.join(timeout=0 if wedged else 5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - platform-dependent
                pass

    def __enter__(self) -> "ShardedBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC ordering varies
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # metadata: served by the parent-side engine
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
        """Real executions across the pool (worker + parent cache misses)."""
        return self.local.executions + sum(self._worker_executions)

    def sql(self, text: str, name: str = "") -> Query:
        return self.local.sql(text, name=name)

    def explain(self, plan: PlanNode) -> str:
        return self.local.explain(plan)

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(
        self, query: Query, options: Optional[OptimizerOptions] = None, ctx=None
    ) -> PlanningResult:
        if context_expired(ctx):
            raise_deadline(ctx, "planning")
        return self.plan_many([query], options)[0]

    def _split_expired(self, ctxs, count: int):
        """Indices of live items, or ``None`` when nothing expired."""
        if ctxs is None:
            return None
        if len(ctxs) != count:
            raise ValueError(f"ctxs length {len(ctxs)} != batch length {count}")
        if not any(context_expired(ctx) for ctx in ctxs):
            return None
        return [i for i, ctx in enumerate(ctxs) if not context_expired(ctx)]

    @staticmethod
    def _ctx_for_misses(keys, ctxs, miss_keys):
        """The first-seen context per missed key, aligned with ``miss_keys``.

        The memo dedups by key, so a key shared by several requests is
        fetched once — under the first requester's deadline (parent-side
        expiry was already filtered, so every ctx here is live).
        """
        if ctxs is None:
            return None
        ctx_by_key: Dict = {}
        for key, ctx in zip(keys, ctxs):
            ctx_by_key.setdefault(key, ctx)
        return [ctx_by_key.get(key) for key in miss_keys]

    def plan_many(
        self,
        queries: Sequence[Query],
        options: Optional[OptimizerOptions] = None,
        ctxs=None,
    ) -> List[Optional[PlanningResult]]:
        self._check_open()
        live = self._split_expired(ctxs, len(queries))
        if live is not None:
            # Expired items never reach the memo or a pipe; their slots
            # stay None while the live subset goes through the normal path.
            sub = self.plan_many(
                [queries[i] for i in live], options, [ctxs[i] for i in live]
            )
            out: List[Optional[PlanningResult]] = [None] * len(queries)
            for index, result in zip(live, sub):
                out[index] = result
            return out
        keys = [plan_key(query, options) for query in queries]
        resolved, miss_keys, miss_queries = self._plan_memo.lookup(keys, queries)
        if miss_queries:
            # IPC happens outside the memo lock; two threads missing the
            # same key both scatter, but worker results are deterministic
            # so the duplicate insert is identical.
            results = self._scatter(
                "plan_many",
                (miss_queries, options),
                miss_keys,
                ctxs=self._ctx_for_misses(keys, ctxs, miss_keys),
            )
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
            raise_deadline(ctx, "hint completion")
        return self.plan_with_hints_many([(query, join_order, join_methods)])[0]

    def plan_with_hints_many(
        self,
        requests: Sequence[Tuple[Query, Sequence[str], Sequence[str]]],
        ctxs=None,
    ) -> List[Optional[PlanningResult]]:
        self._check_open()
        live = self._split_expired(ctxs, len(requests))
        if live is not None:
            sub = self.plan_with_hints_many(
                [requests[i] for i in live], [ctxs[i] for i in live]
            )
            out: List[Optional[PlanningResult]] = [None] * len(requests)
            for index, result in zip(live, sub):
                out[index] = result
            return out
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
            results = self._scatter(
                "hint_many",
                miss_requests,
                ["|".join((key[0],) + key[1] + key[2]) for key in miss_keys],
                ctxs=self._ctx_for_misses(memo_keys, ctxs, miss_keys),
            )
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
        use_cache: bool = True,
        ctx=None,
    ) -> ExecutionResult:
        if context_expired(ctx):
            raise_deadline(ctx, "execution")
        if not use_cache:
            # Uncached timing studies must not pollute worker caches.
            return self.local.execute(query, plan, timeout_ms=timeout_ms, use_cache=False)
        return self.execute_many([(query, plan, timeout_ms)])[0]

    def execute_many(
        self,
        requests: Sequence[Tuple[Query, PlanNode, Optional[float]]],
        ctxs=None,
    ) -> List[Optional[ExecutionResult]]:
        live = self._split_expired(ctxs, len(requests))
        if live is not None:
            sub = self.execute_many(
                [requests[i] for i in live], [ctxs[i] for i in live]
            )
            out: List[Optional[ExecutionResult]] = [None] * len(requests)
            for index, result in zip(live, sub):
                out[index] = result
            return out
        keys = [
            f"{query.signature()}#{plan_signature(plan)}"
            for query, plan, _timeout in requests
        ]
        return self._scatter("execute_many", list(requests), keys, ctxs=ctxs)

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
        self._broadcast("clear_caches")

    def stats(self) -> Dict[str, float]:
        return {
            "backend": "sharded",
            "workers": self.num_workers,
            "executions": self.executions,
            "plan_memo": len(self._plan_memo),
            "hint_memo": len(self._hint_memo),
            "statement_cache": self.local.stats()["statement_cache"],
        }


def make_backend(
    workload,
    engine_workers: int = 1,
    engine_url: str = "",
) -> "EngineBackend":
    """Pick a backend for a workload: remote > sharded > local.

    A non-empty ``engine_url`` (``tcp://host:port``, see
    :mod:`repro.engine.remote`) wins over ``engine_workers``: planning and
    execution go to a ``repro-engine`` server at that address, with the
    workload's in-process engine kept client-side for metadata and SQL
    binding.  Otherwise ``engine_workers`` picks local (1) or a sharded
    worker pool (>1).  Both out-of-process backends reuse the workload's
    in-process engine for metadata (avoiding a redundant dataset rebuild),
    and both serve plans bitwise-identical to the local backend.
    """
    if engine_url:
        # Imported lazily: the remote subsystem is optional plumbing, and
        # the default in-process path must not pay for it.
        from repro.engine.remote.client import RemoteBackend

        return RemoteBackend(
            engine_url, database=workload.database, spec=workload.spec
        )
    if engine_workers <= 1:
        return workload.database
    if workload.spec is None:
        raise ValueError(
            "engine_workers > 1 requires a workload with a WorkloadSpec "
            "(build it via build_*_workload / build_workload_by_name)"
        )
    return ShardedBackend(workload.spec, engine_workers, database=workload.database)
