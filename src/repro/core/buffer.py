"""The execution buffer: every plan FOSS has executed, grouped by query.

:class:`ExecutionBuffer` records each plan executed in the real
environment.  It feeds three consumers (paper Fig. 3): reference sets for
episode bounties, training pairs for the AAM, and the latency lookups used
when the planner interacts with the real environment.  The planner's PPO
rollout storage lives in :mod:`repro.rl.rollout`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.aam import AAMSample
from repro.core.encoding import PlanEncoder
from repro.core.reward import AdvantageFunction, ReferenceSet
from repro.optimizer.plans import Plan, plan_signature
from repro.sql.ast import Query, StatementKey


# ----------------------------------------------------------------------
# executed-plan records
# ----------------------------------------------------------------------


@dataclass
class PlanRecord:
    """One executed plan."""

    plan: Plan
    step: int
    latency_ms: float
    timed_out: bool


class ExecutionBuffer:
    """Executed-plan records grouped by query."""

    def __init__(self) -> None:
        self._records: Dict[StatementKey, Dict[str, PlanRecord]] = {}
        self._queries: Dict[StatementKey, Query] = {}
        self.total_added = 0  # monotone counter (drives AAM retrain cadence)

    # ------------------------------------------------------------------
    def add(
        self,
        query: Query,
        plan: Plan,
        step: int,
        latency_ms: float,
        timed_out: bool,
    ) -> bool:
        """Record an execution; returns False if the plan was already known."""
        key = query.key()
        per_query = self._records.setdefault(key, {})
        self._queries.setdefault(key, query)
        plan_sig = plan_signature(plan)
        if plan_sig in per_query:
            return False
        per_query[plan_sig] = PlanRecord(
            plan=plan, step=step, latency_ms=latency_ms, timed_out=timed_out
        )
        self.total_added += 1
        return True

    def records_for(self, query: Query) -> List[PlanRecord]:
        return list(self._records.get(query.key(), {}).values())

    def num_records(self) -> int:
        return sum(len(v) for v in self._records.values())

    def latency_of(self, query: Query, plan: Plan) -> Optional[PlanRecord]:
        return self._records.get(query.key(), {}).get(plan_signature(plan))

    # ------------------------------------------------------------------
    def reference_set(self, query: Query, original_latency: float) -> ReferenceSet:
        """Reference plans (best / median better-than-original / original)."""
        better = [
            r.latency_ms
            for r in self.records_for(query)
            if not r.timed_out and r.latency_ms < original_latency
        ]
        return ReferenceSet.from_latencies(original_latency, better)

    def reference_records(self, query: Query, original_latency: float) -> List[PlanRecord]:
        """The actual records behind :meth:`reference_set` (best, median)."""
        better = sorted(
            (
                r
                for r in self.records_for(query)
                if not r.timed_out and r.latency_ms < original_latency
            ),
            key=lambda r: r.latency_ms,
        )
        if not better:
            return []
        return [better[0], better[len(better) // 2]]

    # ------------------------------------------------------------------
    def make_aam_samples(
        self,
        encoder: PlanEncoder,
        advantage: AdvantageFunction,
        max_steps: int,
        rng: np.random.Generator,
        max_pairs_per_query: int = 60,
    ) -> List[AAMSample]:
        """Build labelled plan pairs for AAM training.

        Pairs where *both* plans timed out are filtered (their relative
        order is unknowable — paper §V-B); both orientations of each pair
        are emitted so the position-aware head sees asymmetric supervision.
        """
        samples: List[AAMSample] = []
        for key, per_query in self._records.items():
            query = self._queries[key]
            records = list(per_query.values())
            if len(records) < 2:
                continue
            encodings = encoder.encode_many([(query, r.plan) for r in records])
            encoded = {
                plan_signature(r.plan): enc for r, enc in zip(records, encodings)
            }
            pairs: List[Tuple[PlanRecord, PlanRecord]] = []
            for i, left in enumerate(records):
                for right in records[i + 1 :]:
                    if left.timed_out and right.timed_out:
                        continue
                    pairs.append((left, right))
            if len(pairs) > max_pairs_per_query:
                picked = rng.choice(len(pairs), size=max_pairs_per_query, replace=False)
                pairs = [pairs[int(i)] for i in picked]
            for left, right in pairs:
                for a, b in ((left, right), (right, left)):
                    label = advantage.score(a.latency_ms, b.latency_ms)
                    samples.append(
                        AAMSample(
                            left=encoded[plan_signature(a.plan)],
                            left_step=a.step / max_steps,
                            right=encoded[plan_signature(b.plan)],
                            right_step=b.step / max_steps,
                            label=label,
                        )
                    )
        return samples
