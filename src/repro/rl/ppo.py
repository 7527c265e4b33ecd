"""Proximal Policy Optimization (clipped surrogate + KL early stop).

The paper picks PPO because the KL control keeps successive policies close,
which in turn keeps the AAM's advantage estimates valid inside the simulated
environment (paper §VI-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.nn.layers import gather_backward
from repro.nn.optim import Adam, clip_grad_norm
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
        (log_probs, values), pullback = self.policy(mini.states, mini.action_masks)
        metrics, grads = ppo_loss(log_probs, values, mini, cfg)
        self.optimizer.zero_grad()
        pullback(grads)
        clip_grad_norm(self.policy.parameters(), cfg.max_grad_norm)
        self.optimizer.step()
        return metrics


def ppo_loss(log_probs: np.ndarray, values: np.ndarray, mini: Batch, cfg: PPOConfig):
    """The clipped surrogate plus ``value_coef`` times the value MSE minus
    ``entropy_coef`` times the entropy, over a minibatch's masked
    log-probabilities (B, A) and values (B,).

    Returns ``(metrics, (grad_log_probs, grad_values))``: the three terms
    with the approximate KL to the old policy, and the loss's gradients
    from a seed of 1.  The backward runs the op chain's steps in the order
    its reverse-mode walk ran them; ``log_probs`` is reached three times
    (the taken actions' gather, then the entropy's product, then its exp)
    and its arrivals are added in that order.
    """
    rows = np.arange(len(mini.actions))
    taken = (rows, np.asarray(mini.actions, dtype=np.int64))
    # policy term: -mean(min(ratio * adv, clip(ratio) * adv))
    new_log_probs = log_probs[taken]
    ratio = np.exp(new_log_probs - mini.old_log_probs)
    low, high = 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio
    unclipped = ratio * mini.advantages
    clipped = np.clip(ratio, low, high) * mini.advantages
    take_unclipped = unclipped <= clipped
    chosen = np.where(take_unclipped, unclipped, clipped)
    policy_scale = 1.0 / chosen.size
    policy_loss = -(chosen.sum() * policy_scale)
    # value term: mean((values - returns) ** 2), the square being diff * diff
    diff = values - mini.returns
    value_scale = 1.0 / diff.size
    value_loss = (diff * diff).sum() * value_scale
    # entropy: mean(-sum(probs * log_probs))
    probs = np.exp(log_probs)
    row_entropy = -(probs * log_probs).sum(axis=-1)
    entropy_scale = 1.0 / row_entropy.size
    entropy = row_entropy.sum() * entropy_scale

    # loss = (policy_loss + value_loss * c_v) - entropy * c_e, backward:
    grad_chosen = np.broadcast_to(-policy_scale, chosen.shape)
    grad_ratio = np.where(take_unclipped, grad_chosen, 0.0) * mini.advantages
    grad_clipped = np.where(take_unclipped, 0.0, grad_chosen) * mini.advantages
    grad_ratio = grad_ratio + grad_clipped * ((ratio >= low) & (ratio <= high))
    grad_log_probs = gather_backward(grad_ratio * ratio, taken, log_probs.shape)
    grad_squares = np.broadcast_to(cfg.value_coef * value_scale, diff.shape)
    grad_values = grad_squares * diff + grad_squares * diff
    grad_row_entropy = np.broadcast_to(-cfg.entropy_coef * entropy_scale, row_entropy.shape)
    grad_products = np.broadcast_to(np.expand_dims(-grad_row_entropy, -1), log_probs.shape)
    grad_log_probs = grad_log_probs + grad_products * probs
    grad_log_probs = grad_log_probs + grad_products * log_probs * probs

    metrics = {
        "policy_loss": float(policy_loss),
        "value_loss": float(value_loss),
        "entropy": float(entropy),
        # Approximate KL between old and new policy on this minibatch.
        "kl": abs(float(np.mean(mini.old_log_probs - new_log_probs))),
    }
    return metrics, (grad_log_probs, grad_values)
