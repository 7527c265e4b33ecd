"""The fixture-plan corpus: the plans a FOSS episode reaches, and the oracles' answers for them.

Per fixture query: the expert's plan, a short run of the planner's swap /
override edits of it and a full shuffle with random operators, drawn once
from one rng (session fixtures ``job_corpus``, ``stack_corpus`` and
``tpcds_corpus`` in ``conftest.py``).  ``test_plan_record.py`` and
``test_executor_engine.py`` read it; ``test_sqlite_oracle.py`` draws its
own edits (rng 21), to which its list of timed-out edits is pinned.
"""

from functools import cached_property

import numpy as np

from reference_dp import ReferenceEnumerator, reference_hinted_plan
from repro.engine.database import HARD_CAP_MS
from repro.optimizer.plans import JOIN_METHODS


def doctor_like_plans(database, query, rng):
    """The expert's plan, a 1-3 step swap / override edit of it, and a full
    shuffle with random operators (which brings cross joins)."""
    expert = database.plan(query).plan
    order, methods = list(expert.aliases), list(expert.methods)
    edited_order, edited_methods = list(order), list(methods)
    for _ in range(int(rng.integers(1, 4))):
        if rng.random() < 0.5:
            i, j = rng.choice(len(order), size=2, replace=False)
            edited_order[i], edited_order[j] = edited_order[j], edited_order[i]
        else:
            edited_methods[int(rng.integers(len(methods)))] = JOIN_METHODS[int(rng.integers(3))]
    shuffled = list(order)
    rng.shuffle(shuffled)
    random_methods = [JOIN_METHODS[int(rng.integers(3))] for _ in methods]
    space = database.enumerator.join_space(query)  # fresh: leaves the shared fixture's caches alone
    return [
        expert,
        space.complete(edited_order, edited_methods),
        space.complete(shuffled, random_methods),
    ]


class Entry:
    """One query's three plans (expert, short edit, shuffle), each plan's
    reference tree and its engine result at ``HARD_CAP_MS``; the trees and
    the results are computed on first read."""

    def __init__(self, corpus, query, plans):
        self.corpus, self.query, self.plans = corpus, query, plans

    @cached_property
    def trees(self):
        """The expert's plan by ``reference_dp``'s DP, an edit by its hinted builder."""
        reference, query = self.corpus.reference, self.query
        return (reference.optimize(query),) + tuple(
            reference_hinted_plan(reference, query, edit.aliases, edit.methods) for edit in self.plans[1:]
        )

    @cached_property
    def results(self):
        engine = self.corpus.database.executor
        return tuple(engine.execute(self.query, plan, timeout_ms=HARD_CAP_MS) for plan in self.plans)


class Corpus:
    """An :class:`Entry` for every query of a workload, in workload order;
    the plans are drawn here, so no reader's order changes the draws."""

    def __init__(self, workload):
        self.database = database = workload.database
        self.reference = ReferenceEnumerator(
            database.estimator, database.cost_model, database.catalog.has_index
        )
        rng = np.random.default_rng(11)
        self.entries = [
            Entry(self, wq.query, doctor_like_plans(database, wq.query, rng))
            for wq in workload.all_queries
        ]
