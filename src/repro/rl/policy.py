"""Masked categorical policy and actor-critic wrapper.

:meth:`ActorCritic.forward` returns the masked log-probabilities and the
values with their pullback, which the PPO update runs.  Every action the
agent takes, sampled or greedy, runs :meth:`ActorCritic.act_batch`, which
calls the same actor and critic forwards, drops their pullbacks and
evaluates the same numpy expressions, so on one batch the two agree
bitwise.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Module, mlp


def _mask_term(mask: np.ndarray) -> np.ndarray:
    """The additive logit term of an action mask: 0 where legal, -1e9 not.
    An illegal action's probability underflows to ~0 while gradients stay
    well-defined for the legal ones (the paper planner's ``actionmask``)."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise ValueError("every action mask row must allow at least one action")
    return np.where(mask, 0.0, -1e9)


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

    def forward(self, states: np.ndarray, masks: Optional[np.ndarray] = None):
        """``((log_probs, values), pullback)``: the masked log-softmax of the
        actor's logits, (B, A), and the critic's values, (B,).  The pullback
        takes ``(grad_log_probs, grad_values)`` and returns the states'
        gradient."""
        logits, actor_back = self.actor(states)
        if masks is not None:
            logits = logits + _mask_term(masks)
        log_probs, log_softmax_back = F.log_softmax(logits)
        values, critic_back = self.critic(states)

        def pullback(grad):
            grad_log_probs, grad_values = grad
            return actor_back(log_softmax_back(grad_log_probs)) + critic_back(
                grad_values.reshape(values.shape)
            )

        return (log_probs, values.reshape(-1)), pullback

    def act_batch(
        self,
        states: np.ndarray,
        masks: Optional[np.ndarray],
        rngs: Sequence[Optional[np.random.Generator]],
        deterministic: bool = False,
    ) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """Select actions for a batch of states in one forward pass (see
        the module docstring).

        ``rngs`` supplies one generator per row (ignored when
        ``deterministic``); returns (actions, log_probs, values) arrays of
        shape (B,).  A sampled step draws row ``i``'s Gumbel noise from
        ``rngs[i]``, so a row's action does not depend on the batch it runs
        in.  A ``deterministic`` (greedy) step runs only what its argmax
        reads, the masked actor logits, so its log-probs and values are
        ``None``: PPO never learns from greedy steps.
        """
        states = np.asarray(states, dtype=np.float64)
        logits = self.actor(states)[0]
        if masks is not None:
            logits = logits + _mask_term(masks)
        if deterministic:
            return np.argmax(logits, axis=-1), None, None
        noise = np.stack([rng.gumbel(size=logits.shape[-1]) for rng in rngs])
        actions = np.argmax(logits + noise, axis=-1)
        log_probs = F.log_softmax(logits)[0][np.arange(len(actions)), actions]
        return actions, log_probs, self.critic(states)[0].reshape(-1)
