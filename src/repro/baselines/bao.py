"""Bao: steering the expert optimizer with hint sets (Marcus et al., 2021).

Five hint sets (as in the paper's default configuration) toggle join
methods globally; the expert optimizer produces one candidate plan per hint
set and a learned value model picks the cheapest.  Training is epsilon-
greedy arm selection with periodic value-model refits — a laptop-scale
stand-in for Bao's Thompson sampling.
"""

from __future__ import annotations

import time
from typing import FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.baselines.value_model import PlanFeaturizer, ValueModel
from repro.core.inference import OptimizedPlan
from repro.engine.backend import EngineBackend
from repro.optimizer.dp import OptimizerOptions
from repro.sql.ast import Query
from repro.workloads.base import WorkloadQuery

# Bao's arms: sets of globally disabled join operators.
DEFAULT_HINT_SETS: Tuple[FrozenSet[str], ...] = (
    frozenset(),                      # expert default
    frozenset({"nestloop"}),
    frozenset({"merge"}),
    frozenset({"hash"}),
    frozenset({"nestloop", "merge"}),  # hash-only
)


class BaoOptimizer:
    """Hint-set steering with a learned value model."""

    name = "Bao"

    def __init__(
        self,
        database: EngineBackend,
        hint_sets: Sequence[FrozenSet[str]] = DEFAULT_HINT_SETS,
        epsilon: float = 0.2,
        seed: int = 11,
    ) -> None:
        self.database = database
        self.hint_sets = tuple(hint_sets)
        self.featurizer = PlanFeaturizer(database.catalog)
        self.value_model = ValueModel(self.featurizer.dim, rng=np.random.default_rng(seed))
        self.epsilon = epsilon
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def _candidates(self, query: Query) -> List:
        plans = []
        for disabled in self.hint_sets:
            options = OptimizerOptions(disabled_methods=disabled)
            plans.append(self.database.plan(query, options).plan)
        return plans

    def optimize(self, query: Query) -> OptimizedPlan:
        """Pick the hint-set plan the value model predicts to be fastest."""
        start = time.perf_counter()
        plans = self._candidates(query)
        if self.value_model.trained:
            features = np.stack([self.featurizer.featurize(query, p) for p in plans])
            predicted = self.value_model.predict_batch(features)
            best_index = int(np.argmin(predicted))
        else:
            best_index = 0
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return OptimizedPlan(
            plan=plans[best_index],
            optimization_ms=elapsed_ms,
            candidates_considered=len(plans),
            chosen_step=best_index,
        )

    # ------------------------------------------------------------------
    def train(
        self,
        queries: Sequence[WorkloadQuery],
        iterations: int = 3,
        refit_epochs: int = 30,
    ) -> None:
        """Epsilon-greedy exploration + periodic value-model refits."""
        for _ in range(iterations):
            for wq in queries:
                plans = self._candidates(wq.query)
                if self.value_model.trained and self.rng.random() > self.epsilon:
                    features = np.stack(
                        [self.featurizer.featurize(wq.query, p) for p in plans]
                    )
                    index = int(np.argmin(self.value_model.predict_batch(features)))
                else:
                    index = int(self.rng.integers(len(plans)))
                plan = plans[index]
                expert_latency = self.database.original_latency(wq.query)
                result = self.database.execute(wq.query, plan, timeout_ms=3.0 * expert_latency)
                self.value_model.add_sample(
                    self.featurizer.featurize(wq.query, plan), result.latency_ms
                )
            self.value_model.fit(epochs=refit_epochs)
