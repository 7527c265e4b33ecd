"""Hint-steered plan completion — the `pg_hint_plan` equivalent.

Given an *incomplete plan* (a left-deep join order plus per-level join
methods), build the complete executable plan: the expert optimizer supplies
scan choices and cost/cardinality annotations, exactly as the paper
describes (`Γp(Q, ICP) → CP`).
"""

from __future__ import annotations

from typing import Sequence

from repro.optimizer.dp import HintError, PlanEnumerator
from repro.optimizer.plans import JOIN_METHODS, PlanNode
from repro.sql.ast import Query

__all__ = ["HintError", "HintedPlanBuilder"]


class HintedPlanBuilder:
    """Completes (join order, join methods) hints into physical plans."""

    def __init__(self, enumerator: PlanEnumerator) -> None:
        self.enumerator = enumerator

    def build(
        self,
        query: Query,
        join_order: Sequence[str],
        join_methods: Sequence[str],
    ) -> PlanNode:
        """Construct the complete plan steered by the hint.

        ``join_order`` lists leaf aliases left-to-right (the first two form
        the deepest join); ``join_methods`` lists methods bottom-up and must
        have ``len(join_order) - 1`` entries.
        """
        self._validate(query, join_order, join_methods)
        space = self.enumerator.join_space(query)
        first = space.index[join_order[0]]
        plan: PlanNode = space.scans[first]
        mask = 1 << first
        for alias, method in zip(join_order[1:], join_methods):
            i = space.index[alias]
            plan = space.join(plan, mask, i, method)
            mask |= 1 << i
        return plan

    def _validate(
        self,
        query: Query,
        join_order: Sequence[str],
        join_methods: Sequence[str],
    ) -> None:
        if sorted(join_order) != sorted(query.aliases):
            raise HintError(
                f"hint order {list(join_order)} does not cover query aliases {query.aliases}"
            )
        if len(join_methods) != max(0, len(join_order) - 1):
            raise HintError(
                f"expected {len(join_order) - 1} join methods, got {len(join_methods)}"
            )
        for method in join_methods:
            if method not in JOIN_METHODS:
                raise HintError(f"unknown join method {method!r}")
