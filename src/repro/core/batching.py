"""Lockstep batched execution of planner episodes (the FOSS hot path).

Training runs 900 episodes per PPO update (paper Fig. 3); executed one at a
time, every step costs a singleton policy forward plus a singleton AAM
forward.  The runner instead advances a *cohort* of episodes in lockstep:

* one ``(B, ...)`` policy forward per step (:meth:`ActorCritic.act_batch`);
* one statevec forward per step through the AAM's version-keyed cache
  (:meth:`Planner.statevec_many`);
* every advantage / promising-plan / bounty query raised by the cohort in a
  step is flushed through the environment's batch API
  (``advantage_many`` / ``observe_plan_many`` / ``episode_bounty_many``),
  which the simulated environment's :class:`AAMScorer` resolves with a
  single head forward per flush.

Batch-size invariance: each episode draws a child generator from the
planner's generator *in episode order* when the cohort forms, and samples
its own gumbel noise row.  Scores and statevecs are deterministic given the
model weights, so a fixed seed produces identical trajectories for every
``batch_size`` — ``batch_size=1`` reproduces the sequential
``Planner.run_episode`` loop step for step.  (Against the real environment
this holds as long as a cohort does not mix episodes of the *same* query,
whose interleaved executions can enrich each other's reference sets.)
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.actions import SwapAction
from repro.core.icp import IncompletePlan, minsteps
from repro.core.planner import CandidatePlan, Episode, Planner
from repro.core.simenv import EpisodeContext
from repro.optimizer.plans import Plan
from repro.rl.rollout import Transition
from repro.sql.ast import Query

DEFAULT_EPISODE_BATCH_SIZE = 32


def spawn_episode_rng(rng: np.random.Generator) -> np.random.Generator:
    """Derive a per-episode child generator (one parent draw per episode)."""
    return np.random.default_rng(int(rng.integers(0, 2**63)))


class _LiveEpisode:
    """Mutable per-episode state while its cohort is in flight."""

    __slots__ = (
        "query",
        "ctx",
        "rng",
        "icp",
        "plan",
        "seen",
        "best_plan",
        "best_step",
        "candidates",
        "transitions",
        "total_reward",
        "last_swap",
        # per-step scratch, valid between the phases of one lockstep step
        "new_icp",
        "new_plan",
        "is_new",
        "step_reward",
        "pending",
    )

    def __init__(self, query: Query, ctx: EpisodeContext, rng: Optional[np.random.Generator]) -> None:
        self.query = query
        self.ctx = ctx
        self.rng = rng
        self.icp = ctx.original_icp
        self.plan = ctx.original_plan
        self.seen = {self.icp.signature()}
        self.best_plan = ctx.original_plan
        self.best_step = 0
        self.candidates: List[CandidatePlan] = [
            CandidatePlan(plan=self.plan, icp=self.icp, step=0)
        ]
        self.transitions: List[Transition] = []
        self.total_reward = 0.0
        self.last_swap: Optional[SwapAction] = None
        self.new_icp: Optional[IncompletePlan] = None
        self.new_plan: Optional[Plan] = None
        self.is_new = False
        self.step_reward = 0.0
        self.pending: Optional[Transition] = None

    def finish(self) -> Episode:
        return Episode(
            query=self.query,
            context=self.ctx,
            candidates=self.candidates,
            best_plan=self.best_plan,
            best_step=self.best_step,
            transitions=self.transitions,
            total_reward=self.total_reward,
        )


class BatchedEpisodeRunner:
    """Runs planner episodes (Algorithm 1) in lockstep cohorts."""

    def __init__(self, planner: Planner, batch_size: int = DEFAULT_EPISODE_BATCH_SIZE) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.planner = planner
        self.batch_size = batch_size
        # Scratch buffer for the per-step stacked action masks, reused
        # across cohort steps (the cohort only shrinks, so a handful of
        # shapes recur).  Transitions store the *source* mask rows, never
        # views of this buffer, so reuse cannot corrupt recorded episodes.
        self._mask_pool: dict = {}

    # ------------------------------------------------------------------
    def run(
        self,
        environment,
        queries: Sequence[Query],
        deterministic: bool = False,
        ctxs: Optional[Sequence] = None,
    ) -> List[Episode]:
        """Run one episode per query; results keep the input order.

        ``ctxs`` (request contexts aligned with ``queries``, or ``None``)
        reach the engine with each cohort's original-plan planning call.
        """
        episodes: List[Episode] = []
        for start in range(0, len(queries), self.batch_size):
            stop = start + self.batch_size
            episodes.extend(
                self._run_cohort(
                    environment,
                    queries[start:stop],
                    deterministic,
                    None if ctxs is None else ctxs[start:stop],
                )
            )
        return episodes

    # ------------------------------------------------------------------
    def _run_cohort(
        self,
        environment,
        queries: Sequence[Query],
        deterministic: bool,
        ctxs: Optional[Sequence],
    ) -> List[Episode]:
        planner = self.planner
        cfg = planner.config

        # One batch call fetches every episode's original plan/latency (a
        # remote engine answers the cohort in one round trip).
        contexts = environment.begin_episode_many(queries, ctxs=ctxs)

        lives: List[_LiveEpisode] = []
        for query, ctx in zip(queries, contexts):
            # Child generators are drawn in episode order *before* any
            # stepping, so the parent stream advances identically for every
            # batch size (environment calls never touch the planner's rng,
            # so drawing after begin_episode_many keeps the same parent stream).
            rng = None if deterministic else spawn_episode_rng(planner.rng)
            lives.append(_LiveEpisode(query, ctx, rng))

        active = [ep for ep in lives if ep.icp.num_tables >= 2]

        for t in range(1, cfg.max_steps + 1):
            if not active:
                break
            self._step_cohort(environment, active, t, deterministic)

        return [ep.finish() for ep in lives]

    def _step_cohort(
        self,
        environment,
        active: List[_LiveEpisode],
        t: int,
        deterministic: bool,
    ) -> None:
        planner = self.planner
        cfg = planner.config
        space = planner.action_space

        # Phase 1: action selection — one policy forward for the cohort.
        mask_rows = [
            space.post_swap_mask(ep.icp, ep.last_swap)
            if ep.last_swap is not None
            else space.legality_mask(ep.icp)
            for ep in active
        ]
        key = (len(mask_rows), mask_rows[0].shape[0], mask_rows[0].dtype)
        buf = self._mask_pool.get(key)
        if buf is None:
            if len(self._mask_pool) >= 64:
                self._mask_pool.clear()
            buf = self._mask_pool[key] = np.empty(
                (key[0], key[1]), dtype=mask_rows[0].dtype
            )
        masks = np.stack(mask_rows, out=buf)
        states = planner.statevec_many([(ep.query, ep.plan, t - 1) for ep in active])
        actions, log_probs, values = planner.policy.act_batch(
            states, masks, [ep.rng for ep in active], deterministic
        )

        # Phase 2: apply actions and complete the edited ICPs (Γp(Q, ICP))
        # through one engine batch call for the cohort.
        for ep, action_id in zip(active, actions):
            action = space.decode(int(action_id))
            ep.last_swap = action if isinstance(action, SwapAction) else None
            ep.new_icp = space.apply(int(action_id), ep.icp)
        plannings = planner.database.plan_with_hints_many(
            [(ep.query, ep.new_icp.order, ep.new_icp.methods) for ep in active]
        )
        for ep, planning in zip(active, plannings):
            ep.new_plan = planning.plan

        # Phase 3: flush every best-vs-new advantage query in one batch.
        scores = environment.advantage_many(
            [(ep.ctx, ep.best_plan, ep.best_step, ep.new_plan, t) for ep in active]
        )

        # Phase 4: per-episode bookkeeping (rewards, novelty, best update).
        observed: List[Tuple[EpisodeContext, IncompletePlan, Plan, int]] = []
        for ep, score in zip(active, scores):
            ep.step_reward = planner.advantage_fn.penalty(
                minsteps(ep.ctx.original_icp, ep.new_icp), t
            )
            ep.is_new = ep.new_icp.signature() not in ep.seen
            if ep.is_new:
                ep.seen.add(ep.new_icp.signature())
                ep.step_reward += score
                observed.append((ep.ctx, ep.new_icp, ep.new_plan, t))
                ep.candidates.append(CandidatePlan(plan=ep.new_plan, icp=ep.new_icp, step=t))
            if score > 0:
                ep.best_plan, ep.best_step = ep.new_plan, t
        environment.observe_plan_many(observed)

        # Phase 5: terminal episode bounties, one flush for the cohort.
        if t == cfg.max_steps:
            eligible = [ep for ep in active if ep.is_new]
            if eligible:
                bounties = environment.episode_bounty_many(
                    [(ep.ctx, ep.best_plan, ep.best_step) for ep in eligible]
                )
                for ep, bounty in zip(eligible, bounties):
                    ep.step_reward += cfg.reward.eta * bounty

        # Phase 6: record transitions and advance episode state.  Masks come
        # from `mask_rows` (fresh per-episode arrays), not the pooled stack.
        # A greedy step has no value or log-prob.
        for k, (ep, state, action_id, mask) in enumerate(zip(active, states, actions, mask_rows)):
            ep.transitions.append(
                Transition(
                    state=state,
                    action=int(action_id),
                    reward=ep.step_reward,
                    done=t == cfg.max_steps,
                    value=None if deterministic else float(values[k]),
                    log_prob=None if deterministic else float(log_probs[k]),
                    action_mask=mask,
                )
            )
            ep.total_reward += ep.step_reward
            ep.icp, ep.plan = ep.new_icp, ep.new_plan
