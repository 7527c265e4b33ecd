"""Reward components: advantage discretization, bounties, penalty (§III).

The initial advantage of plan r over plan l is the fraction of l's latency
that r saves::

    Adv_init(CP_l, CP_r) = 1 - lat(CP_r) / lat(CP_l)  in (-inf, 1]

It is discretized with the paper's point set {0.05, 0.50} into scores
{0, 1, 2}; score 1 means "r saves more than 5%", score 2 "more than 50%".

Rewards per step t::

    Bounty_t  = pb_t + eta * [t == maxsteps] * eb
    Penalty_t = gamma * (minsteps(ICP_t) - t)        (<= 0)

with pb_t the step bounty Adv(best-so-far, CP_t) and eb the episode bounty
computed against the reference plan set (best / median executed plan better
than the original, plus the original itself).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple


@dataclass(frozen=True)
class RewardConfig:
    """Reward hyper-parameters (paper defaults: eta=12, gamma=2)."""

    points: Tuple[float, ...] = (0.05, 0.50)
    eta: float = 12.0
    penalty_gamma: float = 2.0

    @property
    def num_scores(self) -> int:
        return len(self.points) + 1


class AdvantageFunction:
    """Continuous and discretized plan-pair advantages."""

    def __init__(self, config: Optional[RewardConfig] = None) -> None:
        self.config = config if config is not None else RewardConfig()
        points = self.config.points
        if list(points) != sorted(points) or not all(0.0 <= p < 1.0 for p in points):
            raise ValueError("points must be sorted and within [0, 1)")
        # Midpoints D̂_k of each score's interval, with D̂_0 = 0 as specified.
        self._midpoints = [0.0]
        bounds = list(points) + [1.0]
        for k in range(1, len(bounds)):
            self._midpoints.append((bounds[k - 1] + bounds[k]) / 2.0)

    # ------------------------------------------------------------------
    def initial(self, latency_left: float, latency_right: float) -> float:
        """Adv_init: fraction of the left plan's time saved by the right."""
        if latency_left <= 0:
            raise ValueError("left latency must be positive")
        return 1.0 - latency_right / latency_left

    def discretize(self, advantage: float) -> int:
        """Map a continuous advantage to its score (0 .. num_scores-1).

        The paper partitions (-inf, 1] into half-open intervals (d_k,
        d_{k+1}], so a value exactly at a point d_k belongs to the *lower*
        score.
        """
        return bisect.bisect_left(self.config.points, min(advantage, 1.0))

    def score(self, latency_left: float, latency_right: float) -> int:
        """Adv(CP_l, CP_r) from true latencies."""
        return self.discretize(self.initial(latency_left, latency_right))

    def midpoint(self, score: int) -> float:
        """D̂_k for the episode-bounty formula."""
        return self._midpoints[score]

    # ------------------------------------------------------------------
    def episode_bounty(
        self,
        reference_bounties: Sequence[float],
        advantage_scores: Sequence[int],
    ) -> float:
        """eb per the paper's formula.

        ``reference_bounties`` are ``refb_i = Adv_init(CP_ORI, CP_ref_i)``
        for the (best, median, original) reference plans, in that order;
        ``advantage_scores`` are ``adv_i = Adv(CP_ref_i, final)``.
        """
        if len(reference_bounties) != 3 or len(advantage_scores) != 3:
            raise ValueError("episode bounty takes exactly three reference plans")
        num_points = len(self.config.points)
        previous = 1.0  # refb_0: the upper limit
        bounty = 0.0
        for refb, adv in zip(reference_bounties, advantage_scores):
            weight = previous - refb
            bounty += (self.midpoint(adv) + adv / num_points) * weight
            previous = refb
        return bounty

    def penalty(self, min_steps: int, current_step: int) -> float:
        """gamma * (minsteps - t); zero when the path taken is minimal."""
        return self.config.penalty_gamma * (min_steps - current_step)


@dataclass
class ReferenceSet:
    """The per-query reference plans for episode bounties.

    ``bounties`` holds refb for (best, median, original); original's is 0 by
    definition.  Queries with no executed plan better than the original
    degenerate to three zeros.
    """

    bounties: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    latencies: Tuple[float, float, float] = (0.0, 0.0, 0.0)

    @classmethod
    def from_latencies(
        cls,
        original_latency: float,
        better_latencies: Sequence[float],
    ) -> "ReferenceSet":
        """Build from executed latencies that beat the original plan."""
        if original_latency <= 0:
            raise ValueError("original latency must be positive")
        better = sorted(lat for lat in better_latencies if lat < original_latency)
        if not better:
            return cls(
                bounties=(0.0, 0.0, 0.0),
                latencies=(original_latency, original_latency, original_latency),
            )
        best = better[0]
        median = better[len(better) // 2]
        refb = lambda lat: 1.0 - lat / original_latency
        return cls(
            bounties=(refb(best), refb(median), 0.0),
            latencies=(best, median, original_latency),
        )
