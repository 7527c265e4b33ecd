"""Pluggable engine backends: the narrow interface FOSS talks to.

Everything above the engine (planner, environments, trainer, baselines,
experiment harness) depends on :class:`EngineBackend` — roughly
``sql / plan / complete-hint / execute / stats`` plus their batch mirrors —
never on a concrete engine class.  Two implementations ship:

* :class:`LocalBackend` — the in-process expert engine (identical to
  :class:`~repro.engine.database.Database`, which itself satisfies the
  protocol; the subclass exists so call sites can name the local
  implementation explicitly and build one from a spec).
* :class:`~repro.engine.remote.client.RemoteBackend`, in
  :mod:`repro.engine.remote` — the same protocol over a TCP socket to a
  ``repro-engine`` server that wraps a local engine.

Determinism: the engine is a pure function of the dataset (virtual-time
execution, deterministic DP enumeration, seeded statistics), and a server
rebuilds that dataset from the same spec — so both backends return bitwise
identical plans and latencies for the same request
(``tests/test_remote_backend.py``).
"""

from __future__ import annotations

from typing import (
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.engine.database import Database, Dataset, PlanningResult
from repro.executor.engine import ExecutionResult
from repro.optimizer.dp import JoinSpace, OptimizerOptions
from repro.optimizer.plans import PlanNode
from repro.sql.ast import Query


@runtime_checkable
class EngineBackend(Protocol):
    """What the rest of the system may ask of an expert engine.

    Batch methods (``*_many``) are first-class: the lockstep episode runner
    raises one batch call per cohort phase, which a remote backend ships as
    one frame and a local backend resolves in a loop.

    Every planning/execution entry point accepts an optional request
    context (``ctx`` on singletons, an aligned ``ctxs`` sequence on batch
    mirrors; see :class:`repro.engine.context.RequestContext`).  ``None`` —
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
    def join_space(self, query: Query) -> JoinSpace: ...

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


def make_backend(workload, engine_url: str = "") -> "EngineBackend":
    """Pick a backend for a workload: remote when ``engine_url`` is set, else local.

    A non-empty ``engine_url`` (``tcp://host:port``, see
    :mod:`repro.engine.remote`) sends planning and execution to a
    ``repro-engine`` server at that address, with the workload's in-process
    engine kept client-side for metadata and SQL binding; the remote
    backend serves plans bitwise-identical to the local one.  Otherwise the
    workload's own in-process engine is returned.
    """
    if engine_url:
        # Imported lazily: the remote subsystem is optional plumbing, and
        # the default in-process path must not pay for it.
        from repro.engine.remote.client import RemoteBackend

        return RemoteBackend(
            engine_url, database=workload.database, spec=workload.spec
        )
    return workload.database
