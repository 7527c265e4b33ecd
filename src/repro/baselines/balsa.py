"""Balsa: learning a query optimizer without expert demonstrations (Yang et
al., 2022), reduced to this reproduction's left-deep scope.

Balsa constructs plans bottom-up with a learned value network and *no*
original-plan safety net.  Two Balsa signatures are preserved:

* **simulation-to-reality bootstrap** — the value net is pretrained on the
  expert cost model's estimates before any real execution;
* **no assurance from the original plan** — early real executions can be
  catastrophic (the paper's Balsa fails with TLE on Stack for exactly this
  reason), mitigated only by timeouts.

Plan construction is a beam search over (next table, join method) choices
scored by the value network on the partial plan's features.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

import numpy as np

from repro.baselines.value_model import PlanFeaturizer, ValueModel
from repro.core.inference import OptimizedPlan
from repro.engine.backend import EngineBackend, original_latency
from repro.optimizer.cost import PLANNER_COSTS
from repro.optimizer.dp import Prefix
from repro.optimizer.plans import JOIN_METHODS, Plan
from repro.sql.ast import Query
from repro.workloads.base import WorkloadQuery


class BalsaOptimizer:
    """Bottom-up constructor with a value network and beam search."""

    name = "Balsa"

    def __init__(
        self,
        database: EngineBackend,
        beam_width: int = 4,
        epsilon: float = 0.25,
        seed: int = 17,
    ) -> None:
        self.database = database
        self.beam_width = beam_width
        self.epsilon = epsilon
        self.featurizer = PlanFeaturizer(database.catalog)
        self.value_model = ValueModel(self.featurizer.dim, rng=np.random.default_rng(seed))
        self.rng = np.random.default_rng(seed)
        self._bootstrapped = False

    # ------------------------------------------------------------------
    # plan construction
    # ------------------------------------------------------------------
    def _construct(self, query: Query, explore: bool = False) -> Plan:
        """Beam-search a complete left-deep plan scored by the value net."""
        space = self.database.join_space(query)
        beam: List[Tuple[float, Prefix, int]] = [
            (0.0, space.start(i), 1 << i) for i in space.query_order
        ][: self.beam_width]
        while beam[0][2] != space.full:
            expanded: List[Tuple[float, Prefix, int]] = []
            for _, partial, joined in beam:
                for i in sorted(space.candidates(joined)):
                    for method in JOIN_METHODS:
                        plan = space.grow(partial, joined, i, method)
                        score = self._score(query, plan)
                        if explore and self.rng.random() < self.epsilon:
                            score *= self.rng.uniform(0.2, 2.0)
                        expanded.append((score, plan, joined | 1 << i))
            expanded.sort(key=lambda item: item[0])
            # Deduplicate by joined-set to keep beam diversity.
            seen = set()
            beam = []
            for score, plan, joined in expanded:
                key = (joined, plan.methods[-1])
                if key in seen:
                    continue
                seen.add(key)
                beam.append((score, plan, joined))
                if len(beam) >= self.beam_width:
                    break
        return space.finish(min(beam, key=lambda item: item[0])[1])

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
            plan=plan, optimization_ms=elapsed_ms, candidates_considered=self.beam_width, chosen_step=0
        )

    # ------------------------------------------------------------------
    def bootstrap_from_cost_model(self, queries: Sequence[WorkloadQuery], samples_per_query: int = 6) -> None:
        """Sim-to-real: pretrain the value net on expert cost estimates."""
        for wq in queries:
            for _ in range(samples_per_query):
                plan = self._random_plan(wq.query)
                # Cost estimates play the role of simulated latency.
                pseudo_latency = plan.est_costs[-1] / PLANNER_COSTS.params.work_units_per_ms
                self.value_model.add_sample(
                    self.featurizer.featurize(wq.query, plan), pseudo_latency
                )
        self.value_model.fit(epochs=20)
        self._bootstrapped = True

    def _random_plan(self, query: Query) -> Plan:
        order = list(query.aliases)
        self.rng.shuffle(order)
        methods = [JOIN_METHODS[int(self.rng.integers(3))] for _ in range(len(order) - 1)]
        return self.database.plan_with_hints(query, order, methods).plan

    def train(self, queries: Sequence[WorkloadQuery], iterations: int = 3, timeout_factor: float = 4.0) -> None:
        """Construct, execute (with timeouts), refit — the Balsa loop."""
        if not self._bootstrapped:
            self.bootstrap_from_cost_model(queries)
        for _ in range(iterations):
            for wq in queries:
                plan = self._construct(wq.query, explore=True)
                expert_latency = original_latency(self.database, wq.query)
                result = self.database.execute(
                    wq.query, plan, timeout_ms=timeout_factor * expert_latency
                )
                self.value_model.add_sample(
                    self.featurizer.featurize(wq.query, plan), result.latency_ms
                )
            self.value_model.fit(epochs=30)
