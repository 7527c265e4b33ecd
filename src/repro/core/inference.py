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
queries are flushed through one :meth:`AdvantageModel.predict_scores` call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.aam import AdvantageModel
from repro.core.encoding import PlanEncoder
from repro.core.icp import IncompletePlan
from repro.core.planner import Episode, Planner
from repro.core.simenv import AdvantageRequest, EpisodeContext
from repro.engine.backend import EngineBackend
from repro.engine.context import DeadlineExceededError, OptimizeError
from repro.optimizer.plans import PlanNode, plan_signature
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


@dataclass
class OptimizedPlan:
    """FOSS's output for one query."""

    plan: PlanNode
    optimization_ms: float
    candidates_considered: int
    chosen_step: int


class _InferenceEnvironment:
    """A scoring-only environment: AAM advantages, no execution, no rewards.

    ``begin_episode`` must not execute anything (optimization time excludes
    execution), so the context carries a dummy latency.  Advantage queries
    go through a version-aware score cache and are flushed in batches, the
    same mechanism the simulated training environment uses.
    """

    def __init__(self, database: EngineBackend, aam: AdvantageModel, encoder: PlanEncoder, max_steps: int) -> None:
        self.database = database
        self.aam = aam
        self.encoder = encoder
        self.max_steps = max_steps
        # Dropped wholesale when it outgrows the cap: a deployed optimizer
        # streaming distinct queries must not accumulate entries forever.
        self._score_cache: Dict[Tuple[int, str, str, int, str, int], int] = {}
        self.score_cache_capacity = 1_000_000
        self._staged_ctxs: Optional[Sequence] = None

    def stage_ctxs(self, ctxs: Optional[Sequence]) -> None:
        """Stage request contexts for the *next* ``begin_episode_many``.

        ``BatchedEpisodeRunner`` calls ``begin_episode_many(queries)``
        with no room for contexts, so :meth:`FossOptimizer.optimize_many`
        stages them here (only for traced batches) and the first planning
        call consumes them.  Untraced batches never stage, keeping the
        backend call — and therefore any wire frames — identical to
        pre-obs behavior.
        """
        self._staged_ctxs = ctxs

    def begin_episode(self, query: Query) -> EpisodeContext:
        return self.begin_episode_many([query])[0]

    def begin_episode_many(self, queries: Sequence[Query]) -> List[EpisodeContext]:
        ctxs, self._staged_ctxs = self._staged_ctxs, None
        if ctxs is not None and len(ctxs) == len(queries):
            plannings = self.database.plan_many(queries, ctxs=ctxs)
            if any(planning is None for planning in plannings):
                # A context expired between the optimizer's own pre-check
                # and the backend batch; fall back to the caller's
                # one-at-a-time path, which reports expiry per item.
                raise DeadlineExceededError(
                    "a request's deadline expired during batch planning"
                )
        else:
            plannings = self.database.plan_many(queries)
        return [
            EpisodeContext(
                query=query,
                original_plan=planning.plan,
                original_icp=IncompletePlan.extract(planning.plan),
                original_latency=1.0,
                timeout_ms=float("inf"),
            )
            for query, planning in zip(queries, plannings)
        ]

    # ------------------------------------------------------------------
    def advantage_many(self, requests: Sequence[AdvantageRequest]) -> List[int]:
        keys = [
            (
                self.aam.version,
                ctx.query.signature(),
                plan_signature(left_plan),
                left_step,
                plan_signature(right_plan),
                right_step,
            )
            for ctx, left_plan, left_step, right_plan, right_step in requests
        ]
        resolved: Dict[Tuple[int, str, str, int, str, int], int] = {}
        miss_keys: List[Tuple[int, str, str, int, str, int]] = []
        miss_requests: List[AdvantageRequest] = []
        for key, request in zip(keys, requests):
            if key in resolved:
                continue
            hit = self._score_cache.get(key)
            if hit is not None:
                resolved[key] = hit
            else:
                resolved[key] = -1  # placeholder, filled by the flush below
                miss_keys.append(key)
                miss_requests.append(request)
        if miss_requests:
            sides = self._statevecs(
                [(ctx.query, plan, step) for ctx, plan, step, _, _ in miss_requests]
                + [(ctx.query, plan, step) for ctx, _, _, plan, step in miss_requests]
            )
            vec_l, vec_r = sides[: len(miss_requests)], sides[len(miss_requests) :]
            scores = self.aam.predict_scores_from_statevecs(vec_l, vec_r)
            if len(self._score_cache) + len(miss_keys) > self.score_cache_capacity:
                self._score_cache.clear()
            for key, score in zip(miss_keys, scores):
                resolved[key] = int(score)
                self._score_cache[key] = int(score)
        return [resolved[key] for key in keys]

    def _statevecs(self, items) -> np.ndarray:
        return self.aam.statevecs_lazy(
            [
                (
                    query.signature(),
                    plan_signature(plan),
                    (query, plan),
                    step / self.max_steps,
                )
                for query, plan, step in items
            ],
            self.encoder,
        )

    def advantage(self, ctx, left_plan, left_step, right_plan, right_step) -> int:
        return self.advantage_many([(ctx, left_plan, left_step, right_plan, right_step)])[0]

    def episode_bounty(self, ctx, final_plan, final_step) -> float:
        return 0.0

    def episode_bounty_many(self, items) -> List[float]:
        return [0.0 for _ in items]

    def observe_plan(self, ctx, icp, plan, step) -> None:
        return None

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
        self._environment = _InferenceEnvironment(database, aam, encoder, max_steps)
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
        if ctx is not None and ctx.expired():
            raise DeadlineExceededError(
                f"request {ctx.request_id} exceeded its {ctx.deadline_s}s "
                f"deadline before optimization began"
            )
        return self.optimize_many([query])[0]

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
        must check).  Without ``ctxs`` (or with no expired entries) the
        batch is processed exactly as before, so plans stay bitwise
        identical to pre-context serving.
        """
        if not queries:
            return []
        if ctxs is not None:
            if len(ctxs) != len(queries):
                raise ValueError(
                    f"ctxs length {len(ctxs)} != queries length {len(queries)}"
                )
            expired = [ctx is not None and ctx.expired() for ctx in ctxs]
            if any(expired):
                live = [q for q, dead in zip(queries, expired) if not dead]
                live_results = iter(self.optimize_many(live) if live else [])
                out: List[OptimizedPlan] = []
                for query, dead, ctx in zip(queries, expired, ctxs):
                    if dead:
                        out.append(
                            DeadlineExceededError(
                                f"request {ctx.request_id} exceeded its "
                                f"{ctx.deadline_s}s deadline before "
                                f"optimization began"
                            )
                        )
                    else:
                        out.append(next(live_results))
                return out
        queries = [
            bind_sql(self.database, query) if isinstance(query, str) else query
            for query in queries
        ]
        # Traced batches stage their contexts on the environment so the
        # first backend planning call joins the caller's span tree.
        traced = ctxs is not None and any(
            ctx is not None and ctx.trace_id for ctx in ctxs
        )
        if traced:
            self._environment.stage_ctxs(list(ctxs))
        start = time.perf_counter()
        try:
            per_agent: List[List[Episode]] = [
                runner.run(self._environment, queries, deterministic=True)
                for runner in self._runners
            ]
        finally:
            if traced:
                self._environment.stage_ctxs(None)
        results: List[OptimizedPlan] = []
        contexts = [episodes[0].context for episodes in zip(*per_agent)]

        # Tournament: all pairwise (earlier finalist, later finalist)
        # advantage queries for every query, flushed in one batch.
        requests: List[AdvantageRequest] = []
        spans: List[Tuple[int, int]] = []
        for qi in range(len(queries)):
            finalists = [(agent[qi].best_plan, agent[qi].best_step) for agent in per_agent]
            first = len(requests)
            for i in range(len(finalists)):
                for j in range(i + 1, len(finalists)):
                    requests.append(
                        (contexts[qi], finalists[i][0], finalists[i][1], finalists[j][0], finalists[j][1])
                    )
            spans.append((first, len(requests)))
        scores = self._environment.advantage_many(requests) if requests else []

        elapsed_ms = (time.perf_counter() - start) * 1000.0 / len(queries)
        for qi in range(len(queries)):
            finalists = [(agent[qi].best_plan, agent[qi].best_step) for agent in per_agent]
            num_candidates = sum(len(agent[qi].candidates) for agent in per_agent)
            first, _ = spans[qi]
            pair_score = {}
            offset = first
            for i in range(len(finalists)):
                for j in range(i + 1, len(finalists)):
                    pair_score[(i, j)] = scores[offset]
                    offset += 1
            # Temporal-order fold over the precomputed scores: the winner so
            # far (always an earlier finalist) meets each later challenger.
            best_index = 0
            for challenger in range(1, len(finalists)):
                if pair_score[(best_index, challenger)] > 0:
                    best_index = challenger
            best_plan, best_step = finalists[best_index]
            results.append(
                OptimizedPlan(
                    plan=best_plan,
                    optimization_ms=elapsed_ms,
                    candidates_considered=num_candidates,
                    chosen_step=best_step,
                )
            )
        return results
