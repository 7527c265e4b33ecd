"""Loger: join order + join-method *restriction* learning (Chen et al., 2023).

Loger's signature idea (as contrasted with Balsa in the paper): instead of
picking a join method outright, the agent picks a *restriction* — a subset
of methods to forbid — and lets the expert cost model choose among the
remaining ones.  It builds plans bottom-up without consulting the expert
optimizer for an original plan, which is why its optimization time is the
lowest in Fig. 6 (no DP run per query).
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

import numpy as np

from repro.baselines.value_model import PlanFeaturizer, ValueModel
from repro.core.inference import OptimizedPlan
from repro.engine.backend import EngineBackend
from repro.optimizer.dp import Prefix
from repro.optimizer.plans import JOIN_METHODS, Plan
from repro.sql.ast import Query
from repro.workloads.base import WorkloadQuery

# Restriction actions: which methods the expert may NOT use at this join.
RESTRICTIONS: Tuple[frozenset, ...] = (
    frozenset(),
    frozenset({"nestloop"}),
    frozenset({"hash"}),
    frozenset({"merge"}),
    frozenset({"nestloop", "merge"}),
    frozenset({"hash", "merge"}),
)


class LogerOptimizer:
    """Greedy bottom-up construction with learned method restrictions."""

    name = "Loger"

    def __init__(
        self,
        database: EngineBackend,
        epsilon: float = 0.25,
        seed: int = 19,
    ) -> None:
        self.database = database
        self.featurizer = PlanFeaturizer(database.catalog)
        self.value_model = ValueModel(self.featurizer.dim, rng=np.random.default_rng(seed))
        self.epsilon = epsilon
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def _construct(self, query: Query, explore: bool = False) -> Plan:
        space = self.database.join_space(query)
        # Start from the most selective scan (Loger's heuristic start).
        start = min(space.query_order, key=space.rows.__getitem__)
        plan = space.start(start)
        joined = 1 << start
        while joined != space.full:
            options: List[Tuple[float, Prefix, int]] = []
            left_rows = plan.est_rows[-1]
            for i in sorted(space.candidates(joined)):
                out_rows, index_usable = space.extend(left_rows, joined, i)
                for restriction in RESTRICTIONS:
                    allowed = [m for m in JOIN_METHODS if m not in restriction]
                    # The expert cost model picks within the restriction.
                    method = min(
                        allowed,
                        key=lambda m: space.join_cost(m, left_rows, i, out_rows, index_usable),
                    )
                    candidate = space.grow(plan, joined, i, method)
                    options.append((self._score(query, candidate), candidate, i))
            if explore and self.rng.random() < self.epsilon:
                _, plan, i = options[int(self.rng.integers(len(options)))]
            else:
                _, plan, i = min(options, key=lambda item: item[0])
            joined |= 1 << i
        return space.finish(plan)

    def _score(self, query: Query, plan: Prefix) -> float:
        if self.value_model.trained:
            return self.value_model.predict(self.featurizer.featurize(query, plan))
        return float(plan.est_costs[-1])

    # ------------------------------------------------------------------
    def optimize(self, query: Query) -> OptimizedPlan:
        start = time.perf_counter()
        plan = self._construct(query, explore=False)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return OptimizedPlan(
            plan=plan, optimization_ms=elapsed_ms, candidates_considered=1, chosen_step=0
        )

    def train(self, queries: Sequence[WorkloadQuery], iterations: int = 3, timeout_factor: float = 3.0) -> None:
        for _ in range(iterations):
            for wq in queries:
                plan = self._construct(wq.query, explore=True)
                expert_latency = self.database.original_latency(wq.query)
                result = self.database.execute(
                    wq.query, plan, timeout_ms=timeout_factor * expert_latency
                )
                self.value_model.add_sample(
                    self.featurizer.featurize(wq.query, plan), result.latency_ms
                )
            self.value_model.fit(epochs=30)
