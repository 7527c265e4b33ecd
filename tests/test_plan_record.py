"""The plan record against the tree it replaced (``tests/reference_plans.py``).

For every JOB, Stack and TPC-DS fixture query, the expert's plan and the
two edits ``doctor_edits`` draws (a 1-3 step swap / override edit and a
full shuffle with random operators) are built twice: as records, by the
engine (the DP and hint completion), and as trees, by the oracles the
engine replaced (``reference_dp``'s DP and hinted builder, which attach
each leaf's filters and each join's predicates themselves).  Per plan the
record must match its tree on

* the descriptor: the tree's six lists bound to the query are ``==`` the
  record, the record's frame bytes are the tree's, and the record
  survives the wire codec ``==``;
* ``plan_signature`` text and ``explain`` text;
* ``PlanEncoder`` arrays, against ``reference_encoding`` on the tree;
* the executor's result at ``HARD_CAP_MS``, against ``reference_executor``
  on the tree.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import reference_encoding
import reference_plans
from doctor_edits import doctor_like_plans
from reference_dp import ReferenceEnumerator, reference_hinted_plan
from reference_executor import ReferenceExecutionEngine
from repro.core.encoding import EncodedPlan, PlanEncoder
from repro.engine.database import HARD_CAP_MS
from repro.engine.wire import decode_message, encode_message, plan_from_wire, plan_to_wire
from repro.optimizer.plans import explain, plan_signature

WORKLOADS = ["job_workload", "stack_workload", "tpcds_workload"]
FIELDS = [f.name for f in dataclasses.fields(EncodedPlan)]


def _both_shapes(workload):
    """``(query, record, tree)`` for every expert plan and doctor edit."""
    db = workload.database
    reference = ReferenceEnumerator(db.estimator, db.cost_model, db.storage.has_index)
    rng = np.random.default_rng(11)
    built = []
    for wq in workload.all_queries:
        query = wq.query
        expert, *edits = doctor_like_plans(db, query, rng)
        built.append((query, expert, reference.optimize(query)))
        for edit in edits:
            tree = reference_hinted_plan(reference, query, edit.aliases, edit.methods)
            built.append((query, edit, tree))
    return built


@pytest.fixture(scope="module")
def shapes(request):
    return {name: _both_shapes(request.getfixturevalue(name)) for name in WORKLOADS}


@pytest.mark.parametrize("name", WORKLOADS)
def test_descriptor_text_and_wire(shapes, name):
    for query, record, tree in shapes[name]:
        assert reference_plans.to_record(tree, query) == record, query.name
        assert plan_signature(record) == reference_plans.plan_signature(tree), query.name
        assert explain(record) == reference_plans.explain(tree), query.name
        sent = encode_message(plan_to_wire(record))
        assert sent == encode_message(reference_plans.descriptor(tree)), query.name
        assert plan_from_wire(decode_message(sent), query) == record, query.name


@pytest.mark.parametrize("name", WORKLOADS)
def test_encoder_arrays(request, shapes, name):
    workload = request.getfixturevalue(name)
    db = workload.database
    encoder = PlanEncoder(
        db.schema, max_nodes=2 * max(workload.max_query_tables, 2), statistics=db.statistics
    )
    triples = shapes[name]
    got = encoder._encode_batch([(query, record) for query, record, _ in triples])
    want = reference_encoding.encode_batch(encoder, [(query, tree) for query, _, tree in triples])
    for g, w, (query, _, _) in zip(got, want, triples):
        for field in FIELDS:
            assert np.array_equal(getattr(g, field), getattr(w, field)), (query.name, field)


@pytest.mark.parametrize("name", WORKLOADS)
def test_executor_results(request, shapes, name):
    db = request.getfixturevalue(name).database
    engine = db.executor
    reference = ReferenceExecutionEngine(db.storage, engine.cost_model)
    for query, record, tree in shapes[name]:
        want = reference.execute(query, tree, timeout_ms=HARD_CAP_MS)
        assert engine.execute(query, record, timeout_ms=HARD_CAP_MS) == want, query.name
