"""Vectorized plan execution with virtual-time latency accounting.

Operators compute their true cardinalities with numpy — counting weighted
groups of row ids rather than enumerating joined rows — and *latency* is
charged from the shared cost formulas evaluated at those cardinalities.  A
nested-loop join over a huge intermediate therefore reports its true
quadratic price without actually spending it, giving deterministic,
plan-quality-sensitive latencies (see DESIGN.md, substitution table).
"""

from repro.executor.engine import ExecutionEngine, ExecutionResult, TimeoutExceeded

__all__ = ["ExecutionEngine", "ExecutionResult", "TimeoutExceeded"]
