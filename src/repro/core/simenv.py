"""Planner environments: real (execute in the DBMS) and simulated (AAM).

Both expose the same four batch calls to the planner (Algorithm 1), the
ones :class:`~repro.core.batching.BatchedEpisodeRunner` makes for a cohort:

* ``begin_episode_many``  — fetch each query's original plan/ICP and
  per-episode context;
* ``advantage_many``      — Adv(CP_l, CP_r) scores in {0, 1, 2};
* ``episode_bounty_many`` — eb for each final estimated-optimal plan;
* ``observe_plan_many``   — side effects on newly generated plans (real:
  execute under the dynamic timeout into the execution buffer; simulated:
  collect promising plans for validation).

The simulated environment is ``Ê(Γp, θadv)`` from §V: the expert optimizer
is the state transitioner (plan completion happens in the planner itself via
``Γp(Q, ICP)``) and the AAM is the reward indicator, so no plan is executed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.aam import AdvantageModel
from repro.core.buffer import ExecutionBuffer
from repro.core.encoding import PlanEncoder
from repro.core.icp import IncompletePlan
from repro.core.reward import AdvantageFunction
from repro.engine.backend import EngineBackend
from repro.engine.memo import Memo
from repro.optimizer.plans import Plan, plan_signature
from repro.sql.ast import Query

# The paper's dynamic-timeout factor: 1.5x the original plan's latency.
DYNAMIC_TIMEOUT_FACTOR = 1.5


@dataclass
class EpisodeContext:
    """Per-episode state shared between planner and environment."""

    query: Query
    original_plan: Plan
    original_icp: IncompletePlan
    original_latency: float
    timeout_ms: float


# One advantage query: (ctx, left_plan, left_step, right_plan, right_step).
AdvantageRequest = Tuple["EpisodeContext", Plan, int, Plan, int]
# Its cache key: (query, left plan, left step, right plan, right step).
_ScoreKey = Tuple[str, str, int, str, int]


class AAMScorer:
    """The AAM as a judge: Adv(CP_l, CP_r) scores behind one score cache.

    The simulated environment's reward and the deployed optimizer's
    tournament both go through one of these; each owns its own instance.
    (One shared cache would not do: a statevec is bitwise-equal only per
    call shape, so sharing would change which batch computes a served
    score.)  The cache holds scores of one weight version, ``aam.version``,
    and is cleared when that moves; it is a bounded
    :class:`~repro.engine.memo.Memo`, so a deployed optimizer streaming
    distinct queries stays bounded.
    """

    def __init__(self, aam: AdvantageModel, encoder: PlanEncoder, max_steps: int) -> None:
        self.aam = aam
        self.encoder = encoder
        self.max_steps = max_steps
        #: The weight version the cached scores were computed under.
        self.version = aam.version
        self._cache: Memo[_ScoreKey, int] = Memo(1_000_000)

    def advantage_many(self, requests: Sequence[AdvantageRequest]) -> List[int]:
        """Scores for a batch of advantage queries, in request order.

        Cache misses (deduplicated within the batch) are flushed through one
        statevec lookup for both sides of every pair and one head forward,
        so a lockstep cohort of episodes costs one AAM pass per step instead
        of one per episode.
        """
        if self.version != self.aam.version:
            self.version = self.aam.version
            self._cache.clear()
        keys = [
            (
                ctx.query.key(),
                plan_signature(left_plan),
                left_step,
                plan_signature(right_plan),
                right_step,
            )
            for ctx, left_plan, left_step, right_plan, right_step in requests
        ]
        return self._cache.many(keys, requests, self._score)

    def _score(self, requests: Sequence[AdvantageRequest]) -> List[int]:
        """One head forward over both sides' statevecs of every request."""
        sides = self._statevecs(
            [(ctx.query, plan, step) for ctx, plan, step, _, _ in requests]
            + [(ctx.query, plan, step) for ctx, _, _, plan, step in requests]
        )
        vec_l, vec_r = sides[: len(requests)], sides[len(requests) :]
        return self.aam.predict_scores_from_statevecs(vec_l, vec_r).tolist()

    def _statevecs(self, items: Sequence[Tuple[Query, Plan, int]]) -> np.ndarray:
        """Statevecs for (query, plan, step) triples via the AAM's own
        version-keyed cache (also hit by the planner's policy states).
        Cache hits skip plan encoding entirely (lazy miss-only encoding)."""
        return self.aam.statevecs_lazy(
            [
                (query.key(), plan_signature(plan), (query, plan), step / self.max_steps)
                for query, plan, step in items
            ],
            self.encoder,
        )


class RealEnvironment:
    """Rewards from true execution latencies (with dynamic timeouts)."""

    def __init__(
        self,
        database: EngineBackend,
        buffer: ExecutionBuffer,
        advantage: Optional[AdvantageFunction] = None,
    ) -> None:
        self.database = database
        self.buffer = buffer
        self.advantage_fn = advantage if advantage is not None else AdvantageFunction()

    # ------------------------------------------------------------------
    def begin_episode_many(self, queries: Sequence[Query], ctxs=None) -> List[EpisodeContext]:
        """Fetch original plans and latencies for a cohort in two engine
        batch calls (two round trips to a remote backend)."""
        plannings = self.database.plan_many(queries, ctxs=ctxs)
        results = self.database.execute_many(
            [(query, planning.plan, None) for query, planning in zip(queries, plannings)]
        )
        contexts: List[EpisodeContext] = []
        for query, planning, result in zip(queries, plannings, results):
            self.buffer.add(
                query, planning.plan, step=0, latency_ms=result.latency_ms, timed_out=False
            )
            contexts.append(
                EpisodeContext(
                    query=query,
                    original_plan=planning.plan,
                    original_icp=IncompletePlan(planning.plan.aliases, planning.plan.methods),
                    original_latency=result.latency_ms,
                    timeout_ms=result.latency_ms * DYNAMIC_TIMEOUT_FACTOR,
                )
            )
        return contexts

    def _latencies(self, items: Sequence[Tuple[EpisodeContext, Plan, int]]) -> List[float]:
        """Latencies of plans, memoized through the execution buffer.

        Every plan the buffer lacks is executed in one engine batch call
        and recorded in first-need order — exactly the order a one-at-a-time
        loop would have inserted them — so downstream consumers (reference
        sets, AAM sample generation) see an identical buffer regardless of
        batching or backend.  Plans already executed for their query are
        looked up instead of re-run.
        """
        pending: List[Tuple[EpisodeContext, Plan, int]] = []
        seen = set()
        for ctx, plan, step in items:
            key = (ctx.query.key(), plan_signature(plan))
            if key in seen:
                continue
            if self.buffer.latency_of(ctx.query, plan) is not None:
                continue
            seen.add(key)
            pending.append((ctx, plan, step))
        if pending:
            results = self.database.execute_many(
                [(ctx.query, plan, ctx.timeout_ms) for ctx, plan, _step in pending]
            )
            for (ctx, plan, step), result in zip(pending, results):
                self.buffer.add(ctx.query, plan, step, result.latency_ms, result.timed_out)
        return [self.buffer.latency_of(ctx.query, plan).latency_ms for ctx, plan, _step in items]

    def advantage_many(self, requests: Sequence[AdvantageRequest]) -> List[int]:
        """Resolve a batch of advantage queries with one execution flush.

        Both sides of every pair are executed through one
        :meth:`EngineBackend.execute_many` call (missing plans only), then
        scored from the buffer.
        """
        latencies = self._latencies(
            [
                side
                for ctx, left_plan, left_step, right_plan, right_step in requests
                for side in ((ctx, left_plan, left_step), (ctx, right_plan, right_step))
            ]
        )
        return [
            self.advantage_fn.score(left, right)
            for left, right in zip(latencies[0::2], latencies[1::2])
        ]

    def episode_bounty_many(
        self, items: Sequence[Tuple[EpisodeContext, Plan, int]]
    ) -> List[float]:
        """Bounties item by item: each item's reference set is read before
        its final plan is executed, so a batch that repeats a query scores
        as a run of singleton batches would.  Runner-driven episodes
        execute nothing here: phase 3's ``advantage_many`` already executed
        and recorded every final plan.
        """
        bounties: List[float] = []
        for ctx, final_plan, final_step in items:
            refs = self.buffer.reference_set(ctx.query, ctx.original_latency)
            [final_latency] = self._latencies([(ctx, final_plan, final_step)])
            scores = [self.advantage_fn.score(ref_lat, final_latency) for ref_lat in refs.latencies]
            bounties.append(self.advantage_fn.episode_bounty(refs.bounties, scores))
        return bounties

    def observe_plan_many(
        self, items: Sequence[Tuple[EpisodeContext, IncompletePlan, Plan, int]]
    ) -> None:
        self._latencies([(ctx, plan, step) for ctx, _icp, plan, step in items])


class SimulatedEnvironment:
    """``Ê(Γp, θadv)``: AAM-scored rewards, no execution (paper §V-A)."""

    def __init__(
        self,
        database: EngineBackend,
        buffer: ExecutionBuffer,
        aam: AdvantageModel,
        encoder: PlanEncoder,
        max_steps: int,
        advantage: Optional[AdvantageFunction] = None,
        validation_capacity: int = 2_000,
    ) -> None:
        self.database = database
        self.buffer = buffer
        self.scorer = AAMScorer(aam, encoder, max_steps)
        self.advantage_fn = advantage if advantage is not None else AdvantageFunction()
        # Promising plans awaiting validation in the real environment.
        self.validation_queue: List[Tuple[Query, Plan, int]] = []
        self.validation_capacity = validation_capacity

    # ------------------------------------------------------------------
    def begin_episode_many(self, queries: Sequence[Query], ctxs=None) -> List[EpisodeContext]:
        """Original plans for a cohort in one engine batch call.

        The original plan's latency is usually known from prior real
        interaction; the fallbacks (originals are always executed once) are
        flushed through a second batch call.
        """
        plannings = self.database.plan_many(queries, ctxs=ctxs)
        missing: List[int] = []
        seen_missing = set()
        for index, (query, planning) in enumerate(zip(queries, plannings)):
            if self.buffer.latency_of(query, planning.plan) is None:
                key = (query.key(), plan_signature(planning.plan))
                if key not in seen_missing:
                    seen_missing.add(key)
                    missing.append(index)
        if missing:
            results = self.database.execute_many(
                [(queries[i], plannings[i].plan, None) for i in missing]
            )
            for index, result in zip(missing, results):
                self.buffer.add(queries[index], plannings[index].plan, 0, result.latency_ms, False)
        contexts: List[EpisodeContext] = []
        for query, planning in zip(queries, plannings):
            record = self.buffer.latency_of(query, planning.plan)
            original_latency = record.latency_ms
            contexts.append(
                EpisodeContext(
                    query=query,
                    original_plan=planning.plan,
                    original_icp=IncompletePlan(planning.plan.aliases, planning.plan.methods),
                    original_latency=original_latency,
                    timeout_ms=original_latency * DYNAMIC_TIMEOUT_FACTOR,
                )
            )
        return contexts

    # ------------------------------------------------------------------
    def advantage_many(self, requests: Sequence[AdvantageRequest]) -> List[int]:
        return self.scorer.advantage_many(requests)

    def _bounty_requests(
        self, ctx: EpisodeContext, final_plan: Plan, final_step: int
    ) -> List[AdvantageRequest]:
        """The three reference-vs-final advantage queries behind one bounty.

        adv_i is estimated by the AAM for (best, median); the original
        plan's score is also AAM-estimated for consistency with §V.
        """
        ref_records = self.buffer.reference_records(ctx.query, ctx.original_latency)
        requests: List[AdvantageRequest] = [
            (ctx, record.plan, record.step, final_plan, final_step)
            for record in ref_records[:2]
        ]
        while len(requests) < 3:
            requests.append((ctx, ctx.original_plan, 0, final_plan, final_step))
        return requests

    def episode_bounty_many(
        self, items: Sequence[Tuple[EpisodeContext, Plan, int]]
    ) -> List[float]:
        """Episode bounties for a batch, with one AAM flush for all refs."""
        requests: List[AdvantageRequest] = []
        for ctx, final_plan, final_step in items:
            requests.extend(self._bounty_requests(ctx, final_plan, final_step))
        scores = self.advantage_many(requests)
        bounties: List[float] = []
        for i, (ctx, _, _) in enumerate(items):
            refs = self.buffer.reference_set(ctx.query, ctx.original_latency)
            bounties.append(
                self.advantage_fn.episode_bounty(refs.bounties, scores[3 * i : 3 * i + 3])
            )
        return bounties

    def observe_plan_many(
        self, items: Sequence[Tuple[EpisodeContext, IncompletePlan, Plan, int]]
    ) -> None:
        """Batched promising-plan collection (one AAM flush for the cohort)."""
        if len(self.validation_queue) >= self.validation_capacity:
            return
        pending: List[Tuple[EpisodeContext, Plan, int]] = []
        for ctx, _icp, plan, step in items:
            if self.buffer.latency_of(ctx.query, plan) is not None:
                continue
            pending.append((ctx, plan, step))
        if not pending:
            return
        scores = self.advantage_many(
            [(ctx, ctx.original_plan, 0, plan, step) for ctx, plan, step in pending]
        )
        for (ctx, plan, step), score in zip(pending, scores):
            if len(self.validation_queue) >= self.validation_capacity:
                return
            if score > 0:
                self.validation_queue.append((ctx.query, plan, step))

    def drain_validation_queue(self) -> List[Tuple[Query, Plan, int]]:
        queue, self.validation_queue = self.validation_queue, []
        return queue
