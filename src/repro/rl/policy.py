"""Masked categorical policy and actor-critic wrapper.

Gradients decide the path.  :meth:`ActorCritic.forward` builds the tape
and is the PPO update's only path.  Every action the agent takes, sampled
or greedy, runs :meth:`ActorCritic.act_batch`: array code over the
parameters' current ``.data`` (:meth:`repro.nn.layers.Sequential.infer`,
:func:`repro.nn.functional.log_softmax_array`) that evaluates the same
numpy expressions as the taped forward, so on one batch the two agree
bitwise.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Module, mlp
from repro.nn.tensor import Tensor


def _mask_term(mask: np.ndarray) -> np.ndarray:
    """The additive logit term of an action mask: 0 where legal, -1e9 not."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise ValueError("every action mask row must allow at least one action")
    return np.where(mask, 0.0, -1e9)


class CategoricalMasked:
    """Categorical distribution whose support is restricted by a boolean mask,
    on the tape: what the PPO update reads.

    Illegal actions receive -1e9 logits, so their probability underflows to
    ~0 while gradients remain well-defined for legal actions (this is exactly
    the ``actionmask`` mechanism of the paper's planner).
    """

    def __init__(self, logits: Tensor, mask: Optional[np.ndarray] = None) -> None:
        if mask is not None:
            logits = logits + Tensor(_mask_term(mask))
        self.logits = logits
        self.log_probs = F.log_softmax(logits, axis=-1)

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
        """The taped policy and values; :meth:`act_batch` is this on arrays,
        so change both together."""
        logits = self.actor(states)
        dist = CategoricalMasked(logits, masks)
        values = self.critic(states).reshape(-1)
        return dist, values

    def act_batch(
        self,
        states: np.ndarray,
        masks: Optional[np.ndarray],
        rngs: Sequence[Optional[np.random.Generator]],
        deterministic: bool = False,
    ) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """Select actions for a batch of states in one forward pass, as
        array code (see the module docstring).

        ``rngs`` supplies one generator per row (ignored when
        ``deterministic``); returns (actions, log_probs, values) arrays of
        shape (B,).  A sampled step draws row ``i``'s Gumbel noise from
        ``rngs[i]``, so a row's action does not depend on the batch it runs
        in.  A ``deterministic`` (greedy) step runs only what its argmax
        reads, the masked actor logits, so its log-probs and values are
        ``None``: PPO never learns from greedy steps.
        """
        states = np.asarray(states, dtype=np.float64)
        logits = self.actor.infer(states)
        if masks is not None:
            logits = logits + _mask_term(masks)
        if deterministic:
            return np.argmax(logits, axis=-1), None, None
        noise = np.stack([rng.gumbel(size=logits.shape[-1]) for rng in rngs])
        actions = np.argmax(logits + noise, axis=-1)
        log_probs = F.log_softmax_array(logits)[np.arange(len(actions)), actions]
        return actions, log_probs, self.critic.infer(states).reshape(-1)
