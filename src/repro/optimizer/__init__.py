"""The traditional (expert) query optimizer.

A Selinger-style cost-based optimizer over left-deep join orders, playing the
role PostgreSQL plays in the paper: per-column-statistics cardinality
estimation under uniformity/independence assumptions, a PostgreSQL-like cost
model, dynamic-programming join enumeration, and a `pg_hint_plan` equivalent
that completes an *incomplete plan* (join order + join methods) into an
executable plan.
"""

from repro.optimizer.plans import JOIN_METHODS, Plan, explain, plan_signature
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel, CostParameters
from repro.optimizer.dp import HintError, JoinSpace, OptimizerOptions, PlanEnumerator, Prefix

__all__ = [
    "JOIN_METHODS",
    "Plan",
    "explain",
    "plan_signature",
    "CardinalityEstimator",
    "CostModel",
    "CostParameters",
    "JoinSpace",
    "Prefix",
    "PlanEnumerator",
    "OptimizerOptions",
    "HintError",
]
