"""The deployed FOSS optimizer (paper Fig. 1, inference path).

For a query: the expert produces the original plan; each agent's policy
generates a candidate sequence by editing the ICP step by step; the AAM
selects the estimated-optimal plan by comparing candidates in temporal
order (and, with multiple agents, tournaments the per-agent winners).
Optimization time covers expert planning + model inference + plan
completion — but no execution.

The hot path is batched end to end: episodes run through the
:class:`BatchedEpisodeRunner` (``optimize_many`` advances all queries'
episodes in lockstep per agent), and each tournament's pairwise advantage
queries are flushed through the optimizer's :class:`AAMScorer` at once;
the pure :func:`decide` folds each query's verdicts to its winner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import List, Sequence

from repro.core.aam import AdvantageModel
from repro.core.encoding import PlanEncoder
from repro.core.icp import IncompletePlan
from repro.core.planner import Episode, Planner
from repro.core.simenv import AAMScorer, AdvantageRequest, EpisodeContext
from repro.engine.backend import EngineBackend
from repro.engine.context import DeadlineExceededError, OptimizeError, deadline_error, run_live
from repro.optimizer.plans import Plan
from repro.sql.ast import Query


def bind_sql(database: EngineBackend, text: str, name: str = "") -> Query:
    """Parse + bind SQL text through the engine, with typed failure.

    Lex/parse/bind errors are all ``ValueError`` subclasses; anything the
    engine rejects is re-raised as :class:`OptimizeError`.
    """
    try:
        return database.sql(text, name=name)
    except ValueError as exc:
        raise OptimizeError(f"cannot bind SQL for optimization: {exc}") from exc


def decide(count: int, verdicts: Sequence[int]) -> int:
    """The tournament's winner among ``count`` finalists (Fig. 1).

    ``verdicts`` holds Adv(finalist i, finalist j) for every pair i < j in
    :func:`itertools.combinations` order.  The fold runs in temporal
    order: the winner so far (always an earlier finalist) meets each later
    challenger and yields to it on a verdict > 0.  Pure: it reads only its
    arguments, so it calls neither the AAM nor the backend.
    """
    verdict = dict(zip(combinations(range(count), 2), verdicts))
    best = 0
    for challenger in range(1, count):
        if verdict[(best, challenger)] > 0:
            best = challenger
    return best


@dataclass
class OptimizedPlan:
    """FOSS's output for one query."""

    plan: Plan
    optimization_ms: float
    candidates_considered: int
    chosen_step: int


class _InferenceEnvironment:
    """A scoring-only environment: AAM advantages, no execution, no rewards.

    Starting an episode must not execute anything (optimization time
    excludes execution), so the context carries a dummy latency.
    Advantages come from the optimizer's own :class:`AAMScorer`.
    """

    def __init__(self, database: EngineBackend, scorer: AAMScorer) -> None:
        self.database = database
        self.scorer = scorer

    def begin_episode_many(self, queries: Sequence[Query], ctxs=None) -> List[EpisodeContext]:
        plannings = self.database.plan_many(queries, ctxs=ctxs)
        if any(planning is None for planning in plannings):
            # A context expired between the optimizer's own check and the
            # backend batch; the caller's one-at-a-time path reports expiry
            # per item.
            raise DeadlineExceededError("a request's deadline expired during batch planning")
        return [
            EpisodeContext(
                query=query,
                original_plan=planning.plan,
                original_icp=IncompletePlan(planning.plan.aliases, planning.plan.methods),
                original_latency=1.0,
                timeout_ms=float("inf"),
            )
            for query, planning in zip(queries, plannings)
        ]

    def advantage_many(self, requests: Sequence[AdvantageRequest]) -> List[int]:
        return self.scorer.advantage_many(requests)

    def episode_bounty_many(self, items) -> List[float]:
        return [0.0 for _ in items]

    def observe_plan_many(self, items) -> None:
        return None


class FossOptimizer:
    """FOSS as a drop-in optimizer: ``optimize(query) -> plan``."""

    def __init__(
        self,
        database: EngineBackend,
        planners: Sequence[Planner],
        aam: AdvantageModel,
        encoder: PlanEncoder,
        max_steps: int,
        episode_batch_size: int = 32,
    ) -> None:
        if not planners:
            raise ValueError("FOSS needs at least one planner agent")
        from repro.core.batching import BatchedEpisodeRunner

        self.database = database
        self.planners = list(planners)
        self.aam = aam
        self.encoder = encoder
        self.max_steps = max_steps
        self._scorer = AAMScorer(aam, encoder, max_steps)
        self._environment = _InferenceEnvironment(database, self._scorer)
        self._runners = [
            BatchedEpisodeRunner(planner, batch_size=episode_batch_size)
            for planner in self.planners
        ]

    # ------------------------------------------------------------------
    def optimize(self, query, ctx=None) -> OptimizedPlan:
        """Produce the estimated-optimal plan for the query.

        Accepts a bound :class:`Query` or raw SQL text; unparseable or
        unbindable text raises :class:`OptimizeError`.  A
        :class:`~repro.engine.context.RequestContext` whose deadline already
        passed raises :class:`DeadlineExceededError` before any episode
        runs.
        """
        outcome = self.optimize_many([query], None if ctx is None else [ctx])[0]
        if isinstance(outcome, DeadlineExceededError):
            raise outcome
        return outcome

    def optimize_many(self, queries: Sequence, ctxs=None) -> List[OptimizedPlan]:
        """Optimize a batch of queries, amortizing every forward pass.

        Each agent runs all queries' episodes in lockstep cohorts; the
        per-query agent tournaments are then resolved with one batched
        advantage flush.  Per-query optimization time is the batch wall
        clock divided evenly — the paper's metric, amortized.

        ``ctxs`` (aligned with ``queries``) opts into deadline checking:
        queries whose context already expired never enter a cohort — their
        slot in the returned list holds a :class:`DeadlineExceededError`
        instead of an :class:`OptimizedPlan` (callers that pass ``ctxs``
        must check).  The live contexts travel with their queries to the
        engine's planning call.  Deadlines never change a live query's plan.
        """
        if not queries:
            return []
        return run_live(
            queries, ctxs, self._optimize_live, lambda ctx: deadline_error(ctx, "optimization began")
        )

    def _optimize_live(self, queries: Sequence, ctxs) -> List[OptimizedPlan]:
        queries = [
            bind_sql(self.database, query) if isinstance(query, str) else query
            for query in queries
        ]
        start = time.perf_counter()
        per_agent: List[List[Episode]] = [
            runner.run(self._environment, queries, deterministic=True, ctxs=ctxs)
            for runner in self._runners
        ]
        by_query = list(zip(*per_agent))  # each query's episodes, in agent order
        finalists = [[(ep.best_plan, ep.best_step) for ep in episodes] for episodes in by_query]

        # Tournament: all pairwise (earlier finalist, later finalist)
        # advantage queries for every query, flushed in one batch.
        requests: List[AdvantageRequest] = [
            (episodes[0].context, *left, *right)
            for episodes, entrants in zip(by_query, finalists)
            for left, right in combinations(entrants, 2)
        ]
        verdicts = self._scorer.advantage_many(requests) if requests else []

        elapsed_ms = (time.perf_counter() - start) * 1000.0 / len(queries)
        pairs = comb(len(self.planners), 2)
        results: List[OptimizedPlan] = []
        for qi, (episodes, entrants) in enumerate(zip(by_query, finalists)):
            best_plan, best_step = entrants[
                decide(len(entrants), verdicts[qi * pairs : (qi + 1) * pairs])
            ]
            results.append(
                OptimizedPlan(
                    plan=best_plan,
                    optimization_ms=elapsed_ms,
                    candidates_considered=sum(len(ep.candidates) for ep in episodes),
                    chosen_step=best_step,
                )
            )
        return results
