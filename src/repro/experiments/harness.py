"""Drivers shared by all experiments: evaluation, timing, best-plan scans.

Every optimizer under test (PostgreSQL passthrough, Bao, Balsa, Loger,
HybridQO, FOSS) exposes ``optimize(query) -> OptimizedPlan``; the harness
executes the chosen plans and computes the paper's metrics against the
expert baseline.

Optimizers are constructed **by name** through the :mod:`repro.api`
registry (``create_optimizer``), so adding a method to the evaluation means
registering one factory, not editing every experiment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Protocol, Sequence

import numpy as np

from repro import obs
from repro.core.inference import OptimizedPlan
from repro.engine.backend import EngineBackend, original_latency
from repro.experiments.metrics import (
    geometric_mean_relevant_latency,
    workload_relevant_latency,
)
from repro.sql.ast import Query
from repro.workloads.base import WorkloadQuery


class QueryOptimizer(Protocol):
    """Anything that turns a query into an executable plan."""

    def optimize(self, query: Query) -> OptimizedPlan: ...


@dataclass
class EvaluationResult:
    """Per-workload evaluation of one optimizer."""

    query_ids: List[str]
    latencies_ms: List[float]
    optimization_ms: List[float]
    expert_latencies_ms: List[float]
    expert_optimization_ms: List[float]
    wrl: float
    gmrl: float

    @property
    def total_runtime_s(self) -> float:
        """Workload runtime (execution + optimization), in seconds."""
        return (sum(self.latencies_ms) + sum(self.optimization_ms)) / 1000.0

    @property
    def expert_total_runtime_s(self) -> float:
        return (sum(self.expert_latencies_ms) + sum(self.expert_optimization_ms)) / 1000.0


@dataclass
class MethodResult:
    """Train+test evaluation of one method on one workload."""

    method: str
    workload: str
    train: EvaluationResult
    test: EvaluationResult
    training_time_s: float = 0.0
    timed_out: bool = False  # TLE marker (Balsa on Stack in the paper)


def evaluate_optimizer(
    database: EngineBackend,
    queries: Sequence[WorkloadQuery],
    optimizer: QueryOptimizer,
) -> EvaluationResult:
    """Run the optimizer over the queries, execute its plans, score them.

    Expert plans and both execution sweeps go through the engine's batch
    APIs, so a remote backend evaluates a workload in a few round trips.
    """
    started = time.perf_counter()
    query_ids: List[str] = [wq.query_id for wq in queries]
    expert_plannings = database.plan_many([wq.query for wq in queries])
    expert_results = database.execute_many(
        [(wq.query, planning.plan, None) for wq, planning in zip(queries, expert_plannings)]
    )
    chosen = [optimizer.optimize(wq.query) for wq in queries]
    chosen_results = database.execute_many(
        [(wq.query, result.plan, None) for wq, result in zip(queries, chosen)]
    )
    latencies: List[float] = [result.latency_ms for result in chosen_results]
    optimization: List[float] = [result.optimization_ms for result in chosen]
    expert_latencies: List[float] = [result.latency_ms for result in expert_results]
    expert_optimization: List[float] = [planning.planning_ms for planning in expert_plannings]
    registry = obs.get_registry()
    registry.counter(
        "experiments_evaluations_total", "evaluate_optimizer sweeps run"
    ).inc()
    registry.histogram(
        "experiments_evaluation_ms", "wall time of one evaluate_optimizer sweep"
    ).observe((time.perf_counter() - started) * 1000.0)
    return EvaluationResult(
        query_ids=query_ids,
        latencies_ms=latencies,
        optimization_ms=optimization,
        expert_latencies_ms=expert_latencies,
        expert_optimization_ms=expert_optimization,
        wrl=workload_relevant_latency(latencies, expert_latencies, optimization, expert_optimization),
        gmrl=geometric_mean_relevant_latency(latencies, expert_latencies),
    )


def optimization_times(
    database: EngineBackend,
    queries: Sequence[WorkloadQuery],
    optimizer: QueryOptimizer,
) -> np.ndarray:
    """Per-query optimization times in ms (input SQL -> final plan); Fig. 6."""
    return np.array([optimizer.optimize(wq.query).optimization_ms for wq in queries])


@dataclass
class KnownBestResult:
    """Fig. 8 data: per-query best-found plans for one method."""

    method: str
    query_ids: List[str]
    savings_ratios: np.ndarray  # 1 - best_latency / expert_latency, sorted desc

    def queries_saving_at_least(self, fraction: float) -> int:
        return int((self.savings_ratios >= fraction).sum())


def known_best_analysis(
    database: EngineBackend,
    queries: Sequence[WorkloadQuery],
    method: str,
    best_latencies: Dict[str, float],
) -> KnownBestResult:
    """Rank time-savings of known best plans relative to the original plans."""
    ratios = []
    ids = []
    for wq in queries:
        expert_latency = original_latency(database, wq.query)
        best = best_latencies.get(wq.query_id, expert_latency)
        ratios.append(1.0 - min(best, expert_latency) / max(expert_latency, 1e-9))
        ids.append(wq.query_id)
    order = np.argsort(ratios)[::-1]
    return KnownBestResult(
        method=method,
        query_ids=[ids[i] for i in order],
        savings_ratios=np.array([ratios[i] for i in order]),
    )


@dataclass
class TrainingCurve:
    """Fig. 5 / Fig. 9 data: metric trajectory over training time."""

    method: str
    workload: str
    times_s: List[float] = field(default_factory=list)
    speedups: List[float] = field(default_factory=list)
    gmrls: List[float] = field(default_factory=list)

    def record(self, time_s: float, speedup: float, gmrl: float) -> None:
        self.times_s.append(time_s)
        self.speedups.append(speedup)
        self.gmrls.append(gmrl)
