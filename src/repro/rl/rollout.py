"""PPO rollout storage: transitions in, shuffled minibatches out."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.rl.gae import compute_gae


@dataclass
class Transition:
    """One environment step in the planner MDP."""

    state: np.ndarray
    action: int
    reward: float
    done: bool
    value: Optional[float]     # None for a greedy step (never learned from)
    log_prob: Optional[float]
    action_mask: np.ndarray


@dataclass
class Batch:
    """A minibatch of flattened transitions ready for a PPO epoch."""

    states: np.ndarray
    actions: np.ndarray
    old_log_probs: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray
    action_masks: np.ndarray


class RolloutBuffer:
    """Accumulates transitions, then yields shuffled minibatches.

    Advantage normalization happens per-buffer (the common PPO idiom) right
    before iteration.
    """

    def __init__(self, gamma: float = 0.99, lam: float = 0.95) -> None:
        self.gamma = gamma
        self.lam = lam
        self._transitions: List[Transition] = []

    def add(self, transition: Transition) -> None:
        if transition.value is None or transition.log_prob is None:
            raise ValueError("a greedy step's transition has no value or log-prob to learn from")
        self._transitions.append(transition)

    def __len__(self) -> int:
        return len(self._transitions)

    def clear(self) -> None:
        self._transitions.clear()

    def finalize(self, last_value: float = 0.0) -> Batch:
        """Compute GAE over the stored trajectory and flatten to arrays."""
        if not self._transitions:
            raise ValueError("cannot finalize an empty rollout buffer")
        rewards = np.array([t.reward for t in self._transitions])
        values = np.array([t.value for t in self._transitions])
        dones = np.array([t.done for t in self._transitions], dtype=np.float64)
        advantages, returns = compute_gae(
            rewards, values, dones, last_value=last_value, gamma=self.gamma, lam=self.lam
        )
        states = np.stack([t.state for t in self._transitions])
        masks = np.stack([t.action_mask for t in self._transitions])
        return Batch(
            states=states,
            actions=np.array([t.action for t in self._transitions], dtype=np.int64),
            old_log_probs=np.array([t.log_prob for t in self._transitions]),
            advantages=advantages,
            returns=returns,
            action_masks=masks,
        )

    @staticmethod
    def iter_minibatches(
        batch: Batch,
        minibatch_size: int,
        rng: np.random.Generator,
        normalize_advantages: bool = True,
    ) -> Iterator[Batch]:
        """Yield shuffled minibatches from a finalized batch."""
        n = len(batch.actions)
        advantages = batch.advantages
        if normalize_advantages and n > 1:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        order = rng.permutation(n)
        for start in range(0, n, minibatch_size):
            idx = order[start : start + minibatch_size]
            yield Batch(
                states=batch.states[idx],
                actions=batch.actions[idx],
                old_log_probs=batch.old_log_probs[idx],
                advantages=advantages[idx],
                returns=batch.returns[idx],
                action_masks=batch.action_masks[idx],
            )
