"""The planner's action space: Swap and Override with legality masks.

Action encoding (paper §III, "Action"): for a schema-level bound of ``n``
leaf positions, actions ``0 .. Is-1`` are ``Swap(Tl, Tr)`` over the
``Is = n(n-1)/2`` unordered position pairs, and actions ``Is .. Is+Io-1``
are ``Override(Oi, Opj)`` over ``Io = |Op| * (n-1)`` (join position, join
method) pairs.  Queries with ``k < n`` tables mask every action touching a
position beyond ``k``; the post-Swap heuristic further restricts the next
action to overriding the parent join of one of the swapped leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.icp import IncompletePlan
from repro.engine.memo import Memo
from repro.optimizer.plans import JOIN_METHODS

#: Masks kept per kind: the method-vector key space is exponential in the
#: table count, so each memo is bounded.
MASK_CACHE_CAPACITY = 100_000


@dataclass(frozen=True)
class SwapAction:
    """Swap the leaves at 1-based positions (left < right)."""

    left_pos: int
    right_pos: int

    def apply(self, icp: IncompletePlan) -> IncompletePlan:
        return icp.swap(self.left_pos, self.right_pos)

    def __str__(self) -> str:
        return f"Swap(T{self.left_pos}, T{self.right_pos})"


@dataclass(frozen=True)
class OverrideAction:
    """Set join at 1-based bottom-up position ``join_pos`` to ``method``."""

    join_pos: int
    method: str

    def apply(self, icp: IncompletePlan) -> IncompletePlan:
        return icp.override(self.join_pos, self.method)

    def __str__(self) -> str:
        return f"Override(O{self.join_pos}, {self.method})"


class ActionSpace:
    """Fixed-size discrete action space over ``max_tables`` leaf positions."""

    def __init__(self, max_tables: int) -> None:
        if max_tables < 2:
            raise ValueError("action space needs at least two tables")
        self.max_tables = max_tables
        self._swaps: List[SwapAction] = [
            SwapAction(left_pos=l, right_pos=r)
            for l in range(1, max_tables + 1)
            for r in range(l + 1, max_tables + 1)
        ]
        self._overrides: List[OverrideAction] = [
            OverrideAction(join_pos=i, method=m)
            for i in range(1, max_tables)
            for m in JOIN_METHODS
        ]
        self.num_swaps = len(self._swaps)          # Is = n(n-1)/2
        self.num_overrides = len(self._overrides)  # Io = |Op| * (n-1)
        self.size = self.num_swaps + self.num_overrides
        self._swap_index = {(a.left_pos, a.right_pos): i for i, a in enumerate(self._swaps)}
        self._override_index = {
            (a.join_pos, a.method): self.num_swaps + i for i, a in enumerate(self._overrides)
        }
        # Masks depend only on (table count, method vector[, swapped leaves]),
        # revisited every episode step: memoized instead of re-running the
        # Python action scan.
        self._legality_masks: Memo[tuple, np.ndarray] = Memo(MASK_CACHE_CAPACITY)
        self._post_swap_masks: Memo[tuple, np.ndarray] = Memo(MASK_CACHE_CAPACITY)

    # ------------------------------------------------------------------
    # Act(a, ICP)
    # ------------------------------------------------------------------
    def decode(self, action_id: int):
        """Map an integer action id to its Swap/Override behaviour."""
        if not 0 <= action_id < self.size:
            raise IndexError(f"action id {action_id} out of range 0..{self.size - 1}")
        if action_id < self.num_swaps:
            return self._swaps[action_id]
        return self._overrides[action_id - self.num_swaps]

    def encode_swap(self, left_pos: int, right_pos: int) -> int:
        lo, hi = min(left_pos, right_pos), max(left_pos, right_pos)
        return self._swap_index[(lo, hi)]

    def encode_override(self, join_pos: int, method: str) -> int:
        return self._override_index[(join_pos, method)]

    def apply(self, action_id: int, icp: IncompletePlan) -> IncompletePlan:
        """``Act(a, ICP)``: apply the decoded action to the ICP."""
        return self.decode(action_id).apply(icp)

    # ------------------------------------------------------------------
    # legality masks
    # ------------------------------------------------------------------
    def legality_mask(self, icp: IncompletePlan) -> np.ndarray:
        """Mask of actions valid for the ICP's table count.

        Swaps must touch two positions within ``k``; overrides must address
        an existing join and must actually *change* the method (a no-op
        override wastes a step and is treated as illegal).
        """
        k = icp.num_tables
        key = (k, icp.methods)
        cached = self._legality_masks.get(key)
        if cached is not None:
            return cached
        mask = np.zeros(self.size, dtype=bool)
        for i, swap in enumerate(self._swaps):
            if swap.right_pos <= k:
                mask[i] = True
        for i, override in enumerate(self._overrides):
            if override.join_pos <= icp.num_joins:
                current = icp.methods[override.join_pos - 1]
                mask[self.num_swaps + i] = override.method != current
        mask.setflags(write=False)
        return self._legality_masks.put(key, mask)

    def post_swap_mask(self, icp: IncompletePlan, last_swap: SwapAction) -> np.ndarray:
        """``LimitSpace``: after a Swap, only the parents' overrides are legal.

        The legal follow-ups are ``Override(Oi, *)`` where ``Oi`` is the
        parent join of either swapped leaf.
        """
        parents = {
            icp.parent_join_of_leaf(last_swap.left_pos),
            icp.parent_join_of_leaf(last_swap.right_pos),
        }
        key = (icp.num_tables, icp.methods, tuple(sorted(parents)))
        cached = self._post_swap_masks.get(key)
        if cached is not None:
            return cached
        mask = np.zeros(self.size, dtype=bool)
        for i, override in enumerate(self._overrides):
            if override.join_pos in parents and override.join_pos <= icp.num_joins:
                current = icp.methods[override.join_pos - 1]
                mask[self.num_swaps + i] = override.method != current
        if not mask.any():
            # All parent overrides are no-ops; fall back to full legality
            # so the agent is never left without a move.
            return self._post_swap_masks.put(key, self.legality_mask(icp))
        mask.setflags(write=False)
        return self._post_swap_masks.put(key, mask)
