"""HybridQO: MCTS over leading join-order prefixes used as hints (Yu et al.).

Monte Carlo tree search explores *leading prefixes* of the join order; each
explored prefix is handed to the expert optimizer as a hint
(``OptimizerOptions.leading_prefix``), producing a candidate plan.  A value
model trained on executed latencies picks among the top prefixes plus the
expert's own plan.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.baselines.value_model import PlanFeaturizer, ValueModel
from repro.core.inference import OptimizedPlan
from repro.engine.backend import EngineBackend, original_latency
from repro.optimizer.dp import HintError, JoinSpace, OptimizerOptions
from repro.optimizer.plans import Plan
from repro.sql.ast import Query
from repro.workloads.base import WorkloadQuery


@dataclass
class _Node:
    prefix: Tuple[str, ...]
    visits: int = 0
    total_value: float = 0.0
    children: Dict[str, "_Node"] = field(default_factory=dict)

    def ucb(self, parent_visits: int, exploration: float) -> float:
        if self.visits == 0:
            return float("inf")
        mean = self.total_value / self.visits
        return mean + exploration * math.sqrt(math.log(parent_visits + 1) / self.visits)


class HybridQOOptimizer:
    """MCTS prefix hints + value-model plan selection."""

    name = "HybridQO"

    def __init__(
        self,
        database: EngineBackend,
        mcts_budget: int = 24,
        top_k: int = 3,
        max_prefix_length: int = 3,
        exploration: float = 0.6,
        seed: int = 13,
    ) -> None:
        self.database = database
        self.mcts_budget = mcts_budget
        self.top_k = top_k
        self.max_prefix_length = max_prefix_length
        self.exploration = exploration
        self.featurizer = PlanFeaturizer(database.catalog)
        self.value_model = ValueModel(self.featurizer.dim, rng=np.random.default_rng(seed))
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def _prefix_value(self, query: Query, prefix: Tuple[str, ...]) -> float:
        """Negated log estimated cost of a plan under this prefix.

        Rollouts use the greedy enumerator (``max_dp_tables=0``) so MCTS
        stays cheap; the full DP runs only for the final top-k prefixes.
        """
        try:
            options = OptimizerOptions(leading_prefix=prefix, max_dp_tables=0)
            plan = self.database.plan(query, options).plan
        except HintError:
            return -50.0
        return -math.log1p(plan.est_costs[-1])

    def _search_prefixes(self, query: Query) -> List[Tuple[str, ...]]:
        """UCT search over leading prefixes; returns the most-visited ones."""
        space = self.database.join_space(query)
        root = _Node(prefix=())
        for _ in range(self.mcts_budget):
            node = root
            # Selection / expansion down to max_prefix_length.
            while len(node.prefix) < min(self.max_prefix_length, query.num_tables):
                candidates = self._extensions(space, node.prefix)
                if not candidates:
                    break
                for alias in candidates:
                    if alias not in node.children:
                        node.children[alias] = _Node(prefix=node.prefix + (alias,))
                node = max(
                    node.children.values(),
                    key=lambda child: child.ucb(node.visits, self.exploration),
                )
                if node.visits == 0:
                    break
            value = self._prefix_value(query, node.prefix) if node.prefix else -50.0
            # Backpropagate along the prefix chain.
            chain = root
            chain.visits += 1
            for alias in node.prefix:
                chain = chain.children[alias]
                chain.visits += 1
                chain.total_value += value
        # Collect complete-depth prefixes by visit count.
        leaves: List[_Node] = []

        def collect(n: _Node) -> None:
            if n.prefix and not n.children:
                leaves.append(n)
            for child in n.children.values():
                collect(child)

        collect(root)
        leaves.sort(key=lambda n: (n.visits, n.total_value / max(n.visits, 1)), reverse=True)
        return [leaf.prefix for leaf in leaves[: self.top_k]]

    def _extensions(self, space: JoinSpace, prefix: Tuple[str, ...]) -> List[str]:
        if not prefix:
            return list(space.names)
        return [space.names[i] for i in sorted(space.candidates(space.mask(prefix)))]

    # ------------------------------------------------------------------
    def _candidates(self, query: Query) -> List[Plan]:
        plans = [self.database.plan(query).plan]
        for prefix in self._search_prefixes(query):
            try:
                plans.append(self.database.plan(query, OptimizerOptions(leading_prefix=prefix)).plan)
            except HintError:
                continue
        return plans

    def optimize(self, query: Query) -> OptimizedPlan:
        start = time.perf_counter()
        plans = self._candidates(query)
        if self.value_model.trained and len(plans) > 1:
            features = np.stack([self.featurizer.featurize(query, p) for p in plans])
            index = int(np.argmin(self.value_model.predict_batch(features)))
        else:
            index = 0
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return OptimizedPlan(
            plan=plans[index],
            optimization_ms=elapsed_ms,
            candidates_considered=len(plans),
            chosen_step=index,
        )

    # ------------------------------------------------------------------
    def train(self, queries: Sequence[WorkloadQuery], iterations: int = 3) -> None:
        """Execute explored candidates and refit the value model."""
        for _ in range(iterations):
            for wq in queries:
                plans = self._candidates(wq.query)
                expert_latency = original_latency(self.database, wq.query)
                pick = int(self.rng.integers(len(plans)))
                result = self.database.execute(
                    wq.query, plans[pick], timeout_ms=3.0 * expert_latency
                )
                self.value_model.add_sample(
                    self.featurizer.featurize(wq.query, plans[pick]), result.latency_ms
                )
            self.value_model.fit(epochs=30)
