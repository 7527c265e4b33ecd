"""The FOSS planner: DRL over plan-edit sequences (paper §III, Algorithm 1).

An episode starts from the expert optimizer's plan, applies up to
``max_steps`` Swap/Override actions (each completed back into an executable
plan by ``Γp(Q, ICP)``), and rewards each step with bounty + penalty.  The
agent is a masked-categorical PPO policy over the AAM state network's
``statevec`` representations; the state network itself is trained by the
AAM's supervised loop and treated as a (periodically refreshed) feature
extractor here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.actions import ActionSpace
from repro.core.aam import AdvantageModel
from repro.core.encoding import PlanEncoder
from repro.core.icp import IncompletePlan
from repro.core.reward import AdvantageFunction, RewardConfig
from repro.core.simenv import EpisodeContext
from repro.engine.backend import EngineBackend
from repro.optimizer.plans import Plan, plan_signature
from repro.rl.policy import ActorCritic
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.rollout import Transition
from repro.sql.ast import Query


@dataclass
class PlannerConfig:
    """Planner hyper-parameters (paper defaults: maxsteps=3, eta=12, gamma=2)."""

    max_steps: int = 3
    reward: RewardConfig = field(default_factory=RewardConfig)
    ppo: PPOConfig = field(default_factory=PPOConfig)
    hidden_sizes: Tuple[int, ...] = (128, 128)


@dataclass
class CandidatePlan:
    """A plan generated during an episode, with its step index."""

    plan: Plan
    icp: IncompletePlan
    step: int


@dataclass
class Episode:
    """Everything one episode produced."""

    query: Query
    context: EpisodeContext
    candidates: List[CandidatePlan]
    best_plan: Plan
    best_step: int
    transitions: List[Transition]
    total_reward: float


class Planner:
    """Runs episodes (Algorithm 1) and PPO updates for one workload."""

    def __init__(
        self,
        database: EngineBackend,
        encoder: PlanEncoder,
        action_space: ActionSpace,
        aam: AdvantageModel,
        config: Optional[PlannerConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.database = database
        self.encoder = encoder
        self.action_space = action_space
        self.aam = aam
        self.config = config if config is not None else PlannerConfig()
        self.rng = rng if rng is not None else np.random.default_rng()
        self.advantage_fn = AdvantageFunction(self.config.reward)
        self.policy = ActorCritic(
            state_dim=aam.config.d_state,
            num_actions=action_space.size,
            hidden_sizes=self.config.hidden_sizes,
            rng=self.rng,
        )
        self.ppo = PPOTrainer(self.policy, self.config.ppo, rng=self.rng)

    # ------------------------------------------------------------------
    def statevec_many(self, requests: List[Tuple[Query, Plan, int]]) -> np.ndarray:
        """State representations for a batch of (query, plan, step) triples.

        One lookup in the AAM's version-keyed statevec cache, whose
        deduplicated misses share one state-network forward pass; returns a
        (B, d_state) array in request order.
        """
        max_steps = self.config.max_steps
        return self.aam.statevecs_lazy(
            [
                (query.key(), plan_signature(plan), (query, plan), step / max_steps)
                for query, plan, step in requests
            ],
            self.encoder,
        )

    # ------------------------------------------------------------------
    def run_episode(
        self,
        environment,
        query: Query,
        deterministic: bool = False,
    ) -> Episode:
        """One episode of Algorithm 1 against the given environment.

        Delegates to a single-episode cohort of the batched runner, so the
        sequential and lockstep paths share one implementation (see
        :mod:`repro.core.batching` for the batch-size-invariance contract).
        """
        from repro.core.batching import BatchedEpisodeRunner

        return BatchedEpisodeRunner(self, batch_size=1).run(
            environment, [query], deterministic=deterministic
        )[0]

    # ------------------------------------------------------------------
    def update_from_episodes(self, episodes: List[Episode]) -> Dict[str, float]:
        """One PPO update over collected episode transitions."""
        buffer = self.ppo.make_buffer()
        for episode in episodes:
            for transition in episode.transitions:
                buffer.add(transition)
        if len(buffer) == 0:
            return {"updates": 0}
        return self.ppo.update(buffer.finalize())
