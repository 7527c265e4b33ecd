"""Pluggable engine backends: the narrow interface FOSS talks to.

Everything above the engine (planner, environments, trainer, baselines,
experiment harness) depends on :class:`EngineBackend` — roughly
``sql / plan / complete-hint / execute / stats`` plus their batch mirrors,
and one metadata object, the :class:`~repro.catalog.catalog.Catalog` —
never on a concrete engine class.  Two implementations ship:

* :class:`LocalBackend` — the in-process expert engine (identical to
  :class:`~repro.engine.database.Database`, which itself satisfies the
  protocol; the subclass exists so call sites can name the local
  implementation explicitly and build one from a spec).
* :class:`~repro.engine.remote.client.RemoteBackend`, in
  :mod:`repro.engine.remote` — the same protocol over a TCP socket to a
  ``repro-engine`` server that wraps a local engine, holding the catalog
  the server sent and no rows.

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

from repro.catalog.catalog import Catalog
from repro.engine.database import Database, PlanningResult
from repro.executor.engine import ExecutionResult
from repro.optimizer.dp import JoinSpace, OptimizerOptions
from repro.optimizer.plans import Plan
from repro.sql.ast import Query


@runtime_checkable
class EngineBackend(Protocol):
    """What the rest of the system may ask of an expert engine.

    Batch methods (``*_many``) are first-class: the lockstep episode runner
    raises one batch call per cohort phase, which a remote backend ships as
    one frame and a local backend resolves in a loop.

    ``plan_many`` is the one call that takes request contexts (an aligned
    ``ctxs`` sequence; see :class:`repro.engine.context.RequestContext`):
    a deadline acts only while the original plans ``Γp(Q, /)`` are
    fetched, so an item whose context expired gets ``None`` in its slot.
    ``None`` — the default — leaves the batch bitwise-identical.  Hint
    completion and execution take no context: the episode that edits a
    live query's plan runs to its end.
    """

    # -- metadata ------------------------------------------------------
    @property
    def catalog(self) -> Catalog: ...
    @property
    def executions(self) -> int: ...

    # -- SQL entry point ----------------------------------------------
    def sql(self, text: str, name: str = "") -> Query: ...

    # -- planning (Γp(Q, /) and Γp(Q, ICP)) ---------------------------
    def join_space(self, query: Query) -> JoinSpace: ...

    def plan(
        self, query: Query, options: Optional[OptimizerOptions] = None
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
    ) -> PlanningResult: ...

    def plan_with_hints_many(
        self, requests: Sequence[Tuple[Query, Sequence[str], Sequence[str]]]
    ) -> List[PlanningResult]: ...

    # -- execution (Ψp) -----------------------------------------------
    def execute(
        self,
        query: Query,
        plan: Plan,
        timeout_ms: Optional[float] = None,
    ) -> ExecutionResult: ...

    def execute_many(
        self, requests: Sequence[Tuple[Query, Plan, Optional[float]]]
    ) -> List[ExecutionResult]: ...

    def original_latency(self, query: Query) -> float: ...

    # -- introspection -------------------------------------------------
    def explain(self, plan: Plan) -> str: ...
    def clear_caches(self) -> None: ...
    def stats(self) -> Dict[str, float]: ...


class LocalBackend(Database):
    """The in-process engine, behavior-identical to :class:`Database`."""

    @classmethod
    def from_spec(cls, spec) -> "LocalBackend":
        """Build from a :class:`~repro.workloads.base.WorkloadSpec`."""
        return cls(spec.build_dataset())
