"""Reinforcement-learning components: PPO, GAE, rollout buffer, policies.

The paper trains the FOSS planner with PPO (chosen for its KL-controlled
updates, which keep the action distribution close enough that AAM reward
estimates remain valid).  This package is a from-scratch PPO on top of
:mod:`repro.nn`.
"""

from repro.rl.gae import compute_gae
from repro.rl.policy import ActorCritic
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.rollout import RolloutBuffer, Transition

__all__ = [
    "Transition",
    "RolloutBuffer",
    "compute_gae",
    "ActorCritic",
    "PPOConfig",
    "PPOTrainer",
]
