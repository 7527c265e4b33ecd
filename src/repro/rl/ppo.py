"""Proximal Policy Optimization (clipped surrogate + KL early stop).

The paper picks PPO because the KL control keeps successive policies close,
which in turn keeps the AAM's advantage estimates valid inside the simulated
environment (paper §VI-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor
from repro.rl.policy import ActorCritic
from repro.rl.rollout import Batch, RolloutBuffer


@dataclass
class PPOConfig:
    """Hyper-parameters of a PPO update."""

    lr: float = 3e-4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_ratio: float = 0.2
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    epochs: int = 4
    minibatch_size: int = 64
    max_grad_norm: float = 0.5
    target_kl: float = 0.02
    normalize_advantages: bool = True


class PPOTrainer:
    """Runs PPO epochs over finalized rollout batches."""

    def __init__(
        self,
        policy: ActorCritic,
        config: Optional[PPOConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.policy = policy
        self.config = config if config is not None else PPOConfig()
        self.rng = rng if rng is not None else np.random.default_rng()
        self.optimizer = Adam(policy.parameters(), lr=self.config.lr)

    def make_buffer(self) -> RolloutBuffer:
        return RolloutBuffer(gamma=self.config.gamma, lam=self.config.gae_lambda)

    def update(self, batch: Batch) -> Dict[str, float]:
        """Run the configured number of epochs; returns diagnostics."""
        cfg = self.config
        stats = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0, "kl": 0.0, "updates": 0}
        stop = False
        for _ in range(cfg.epochs):
            if stop:
                break
            for mini in RolloutBuffer.iter_minibatches(
                batch, cfg.minibatch_size, self.rng, cfg.normalize_advantages
            ):
                metrics = self._update_minibatch(mini)
                stats["policy_loss"] += metrics["policy_loss"]
                stats["value_loss"] += metrics["value_loss"]
                stats["entropy"] += metrics["entropy"]
                stats["kl"] = metrics["kl"]
                stats["updates"] += 1
                if metrics["kl"] > 1.5 * cfg.target_kl:
                    stop = True
                    break
        if stats["updates"]:
            for key in ("policy_loss", "value_loss", "entropy"):
                stats[key] /= stats["updates"]
        return stats

    def _update_minibatch(self, mini: Batch) -> Dict[str, float]:
        cfg = self.config
        states = Tensor(mini.states)
        dist, values = self.policy(states, mini.action_masks)
        log_probs = dist.log_prob(mini.actions)
        ratio = (log_probs - Tensor(mini.old_log_probs)).exp()
        advantages = Tensor(mini.advantages)
        unclipped = ratio * advantages
        clipped = ratio.clip(1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio) * advantages
        policy_loss = -F.where(unclipped.data <= clipped.data, unclipped, clipped).mean()
        value_loss = F.mse_loss(values, mini.returns)
        entropy = dist.entropy().mean()
        loss = policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy

        self.optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(self.policy.parameters(), cfg.max_grad_norm)
        self.optimizer.step()

        # Approximate KL between old and new policy on this minibatch.
        approx_kl = float(np.mean(mini.old_log_probs - log_probs.data))
        return {
            "policy_loss": float(policy_loss.data),
            "value_loss": float(value_loss.data),
            "entropy": float(entropy.data),
            "kl": abs(approx_kl),
        }
