"""Masked categorical policy and actor-critic wrapper."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Module, mlp
from repro.nn.tensor import Tensor, no_grad


def _mask_term(mask: np.ndarray) -> np.ndarray:
    """The additive logit term of an action mask: 0 where legal, -1e9 not."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise ValueError("every action mask row must allow at least one action")
    return np.where(mask, 0.0, -1e9)


class CategoricalMasked:
    """Categorical distribution whose support is restricted by a boolean mask.

    Illegal actions receive -1e9 logits, so their probability underflows to
    ~0 while gradients remain well-defined for legal actions (this is exactly
    the ``actionmask`` mechanism of the paper's planner).
    """

    def __init__(self, logits: Tensor, mask: Optional[np.ndarray] = None) -> None:
        if mask is not None:
            logits = logits + Tensor(_mask_term(mask))
        self.logits = logits
        self.log_probs = F.log_softmax(logits, axis=-1)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Sample one action id per row using the Gumbel-max trick."""
        noise = rng.gumbel(size=self.logits.shape)
        return np.argmax(self.logits.data + noise, axis=-1)

    def sample_rows(self, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """Sample row ``i`` from ``rngs[i]``.

        Used by the batched episode runner: each lockstep episode owns its
        generator, so trajectories are identical for every batch size (a
        row draws the same gumbel noise whether it runs alone or in a
        cohort).
        """
        num_actions = self.logits.shape[-1]
        noise = np.stack([rng.gumbel(size=num_actions) for rng in rngs])
        return np.argmax(self.logits.data + noise, axis=-1)

    def mode(self) -> np.ndarray:
        return np.argmax(self.logits.data, axis=-1)

    def log_prob(self, actions: np.ndarray) -> Tensor:
        actions = np.asarray(actions, dtype=np.int64)
        rows = np.arange(self.logits.shape[0])
        return self.log_probs[rows, actions]

    def entropy(self) -> Tensor:
        probs = self.log_probs.exp()
        return -(probs * self.log_probs).sum(axis=-1)


class ActorCritic(Module):
    """Policy + value heads over a shared pre-computed state representation.

    FOSS feeds the transformer state representation ``statevec`` into a
    fully-connected action selector (paper §III, "Agent").  The state network
    lives outside this class so it can be shared with the AAM.
    """

    def __init__(
        self,
        state_dim: int,
        num_actions: int,
        hidden_sizes: Sequence[int] = (128, 128),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.state_dim = state_dim
        self.num_actions = num_actions
        self.actor = mlp([state_dim, *hidden_sizes, num_actions], rng=rng, out_gain=0.01)
        self.critic = mlp([state_dim, *hidden_sizes, 1], rng=rng, out_gain=1.0)

    def forward(self, states: Tensor, masks: Optional[np.ndarray] = None) -> Tuple[CategoricalMasked, Tensor]:
        logits = self.actor(states)
        dist = CategoricalMasked(logits, masks)
        values = self.critic(states).reshape(-1)
        return dist, values

    def act(
        self,
        state: np.ndarray,
        mask: Optional[np.ndarray],
        rng: np.random.Generator,
        deterministic: bool = False,
    ) -> Tuple[int, Optional[float], Optional[float]]:
        """Select an action for one state; returns (action, log_prob, value),
        the last two ``None`` when ``deterministic`` (see :meth:`act_batch`)."""
        state2d = np.atleast_2d(np.asarray(state, dtype=np.float64))
        mask2d = None if mask is None else np.atleast_2d(mask)
        actions, log_probs, values = self.act_batch(
            state2d, mask2d, [rng], deterministic=deterministic
        )
        if deterministic:
            return int(actions[0]), None, None
        return int(actions[0]), float(log_probs[0]), float(values[0])

    def act_batch(
        self,
        states: np.ndarray,
        masks: Optional[np.ndarray],
        rngs: Sequence[Optional[np.random.Generator]],
        deterministic: bool = False,
    ) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """Select actions for a batch of states in one forward pass.

        ``rngs`` supplies one generator per row (ignored when
        ``deterministic``); returns (actions, log_probs, values) arrays of
        shape (B,).  A ``deterministic`` (greedy) step runs only what its
        argmax reads, the masked actor logits, as array code
        (:meth:`repro.nn.layers.Sequential.infer`, bitwise the taped
        actor's), so its log-probs and values are ``None``: PPO never learns
        from greedy steps.  A sampled step keeps the tape's forward.
        """
        states = np.asarray(states, dtype=np.float64)
        if deterministic:
            logits = self.actor.infer(states)
            if masks is not None:
                logits = logits + _mask_term(masks)
            return np.argmax(logits, axis=-1), None, None
        with no_grad():
            dist, values = self.forward(Tensor(states), masks)
            actions = dist.sample_rows(rngs)
            log_probs = dist.log_prob(actions).data
        return actions, log_probs, values.data

    def value(self, state: np.ndarray) -> float:
        state2d = np.atleast_2d(np.asarray(state, dtype=np.float64))
        with no_grad():
            return float(self.critic(Tensor(state2d)).data.reshape(-1)[0])
