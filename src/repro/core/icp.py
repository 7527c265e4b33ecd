"""The incomplete plan (ICP): join order + join methods of a left-deep plan.

The paper extracts from the complete plan only what the planner edits — the
left-deep leaf order and the per-level join methods, a
:class:`~repro.optimizer.plans.Plan`'s ``aliases`` and ``methods`` — and
labels nodes
bottom-up: leaves ``T1..Tk`` (T1/T2 are the two deepest leaves) and joins
``O1..O(k-1)`` (O1 is the deepest join).  With that labelling:

* leaf position ``p`` (1-based): T1 and T2 sit under O1; T(p) for p >= 3
  is the right child of O(p-1);
* the parent join of T1 and T2 is O1; the parent of T(p), p >= 3, is O(p-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.optimizer.plans import JOIN_METHODS


@dataclass(frozen=True)
class IncompletePlan:
    """Join order (leaf aliases, left-to-right) + join methods (bottom-up)."""

    order: Tuple[str, ...]
    methods: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.order) < 1:
            raise ValueError("ICP needs at least one table")
        if len(self.methods) != max(0, len(self.order) - 1):
            raise ValueError(
                f"ICP with {len(self.order)} tables needs {len(self.order) - 1} methods, "
                f"got {len(self.methods)}"
            )
        for method in self.methods:
            if method not in JOIN_METHODS:
                raise ValueError(f"unknown join method {method!r}")
        if len(set(self.order)) != len(self.order):
            raise ValueError("duplicate aliases in join order")

    # ------------------------------------------------------------------
    @property
    def num_tables(self) -> int:
        return len(self.order)

    @property
    def num_joins(self) -> int:
        return len(self.methods)

    # ------------------------------------------------------------------
    # the paper's edit operations
    # ------------------------------------------------------------------
    def swap(self, left_pos: int, right_pos: int) -> "IncompletePlan":
        """``Swap(Tl, Tr)``: exchange the leaves at 1-based positions."""
        self._check_pos(left_pos)
        self._check_pos(right_pos)
        if left_pos == right_pos:
            raise ValueError("swap positions must differ")
        order = list(self.order)
        i, j = left_pos - 1, right_pos - 1
        order[i], order[j] = order[j], order[i]
        return IncompletePlan(order=tuple(order), methods=self.methods)

    def override(self, join_pos: int, method: str) -> "IncompletePlan":
        """``Override(Oi, Opj)``: set join ``join_pos`` (1-based, bottom-up)."""
        if not 1 <= join_pos <= self.num_joins:
            raise ValueError(f"join position {join_pos} out of range 1..{self.num_joins}")
        if method not in JOIN_METHODS:
            raise ValueError(f"unknown join method {method!r}")
        methods = list(self.methods)
        methods[join_pos - 1] = method
        return IncompletePlan(order=tuple(self.order), methods=tuple(methods))

    def parent_join_of_leaf(self, leaf_pos: int) -> int:
        """The 1-based O-index of the join directly above leaf ``leaf_pos``."""
        self._check_pos(leaf_pos)
        if self.num_joins == 0:
            raise ValueError("single-table plan has no joins")
        return 1 if leaf_pos <= 2 else leaf_pos - 1

    def _check_pos(self, pos: int) -> None:
        if not 1 <= pos <= self.num_tables:
            raise ValueError(f"leaf position {pos} out of range 1..{self.num_tables}")

    # ------------------------------------------------------------------
    def signature(self) -> str:
        """Stable identity for the episode buffer set T of Algorithm 1."""
        return "|".join(self.order) + "#" + ",".join(self.methods)

    def __str__(self) -> str:
        return self.signature()


def minsteps(origin: IncompletePlan, target: IncompletePlan) -> int:
    """Minimum number of Swap/Override actions transforming origin -> target.

    Swaps permute leaf slots and overrides rewrite method slots
    independently, so the distance decomposes exactly:

    * swaps needed = (#displaced leaves) − (#cycles among displaced leaves)
      — the transposition distance of the permutation;
    * overrides needed = Hamming distance of the method vectors.
    """
    if sorted(origin.order) != sorted(target.order):
        raise ValueError("ICPs cover different table sets")
    if origin.num_tables != target.num_tables:
        raise ValueError("ICPs have different sizes")

    position_in_target = {alias: i for i, alias in enumerate(target.order)}
    permutation = [position_in_target[alias] for alias in origin.order]
    swaps = _transposition_distance(permutation)
    overrides = sum(1 for a, b in zip(origin.methods, target.methods) if a != b)
    return swaps + overrides


def _transposition_distance(permutation: Sequence[int]) -> int:
    """n − (number of cycles) — the minimum transpositions to sort."""
    n = len(permutation)
    seen = [False] * n
    cycles = 0
    for start in range(n):
        if seen[start]:
            continue
        cycles += 1
        node = start
        while not seen[node]:
            seen[node] = True
            node = permutation[node]
    return n - cycles
