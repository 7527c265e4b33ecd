"""The plan record against the tree it replaced (``tests/reference_plans.py``).

Every plan of the fixture-plan corpus (``doctor_edits``: each JOB, Stack
and TPC-DS query's expert plan and two doctor-like edits) is a record,
built by the engine (the DP and hint completion), and a tree, built by the
oracles the engine replaced (``reference_dp``'s DP and hinted builder,
which attach each leaf's filters and each join's predicates themselves).
Per plan the record must match its tree on

* the descriptor: the tree's six lists bound to the query are ``==`` the
  record, the record's frame bytes are the tree's, and the record (as a
  ``PlanningResult``) and its ``ExecutionResult`` survive the wire ``==``;
* ``plan_signature`` text and ``explain`` text;
* ``PlanEncoder`` arrays, against ``reference_encoding``'s real-node slices
  on the tree.

``test_executor_engine.py::TestDifferentialAgainstReference`` holds the
record's executor result to ``reference_executor`` on the tree.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import reference_encoding
import reference_plans
from repro.core.encoding import EncodedPlan, PlanEncoder
from repro.engine.database import PlanningResult
from repro.engine.wire import decode_message, encode_message, execution_from_wire, execution_to_wire
from repro.engine.wire import plan_from_wire, plan_to_wire, planning_to_wire
from repro.optimizer.plans import explain, plan_signature

#: The workload parameter of each test -> the fixture holding its corpus.
CORPORA = {"job_workload": "job_corpus", "stack_workload": "stack_corpus", "tpcds_workload": "tpcds_corpus"}
FIELDS = [f.name for f in dataclasses.fields(EncodedPlan)]


@pytest.mark.parametrize("name", CORPORA)
def test_descriptor_text_and_wire(request, name):
    """A rebuilt plan is not encoded or executed again: ``Plan`` is a frozen
    dataclass of the query and six tuples, which is all the encoder and the
    executor read, and the rebuilt plan is ``==`` the record and sends the
    record's frame bytes (floats cross as ``repr``), so its estimates are
    the record's bit for bit and so is every answer read off it."""
    corpus = request.getfixturevalue(CORPORA[name])
    for entry in corpus.entries:
        query = entry.query
        planning_ms = corpus.database.plan(query).planning_ms
        for record, tree, result in zip(entry.plans, entry.trees, entry.results):
            assert reference_plans.to_record(tree, query) == record, query.name
            assert plan_signature(record) == reference_plans.plan_signature(tree), query.name
            assert explain(record) == reference_plans.explain(tree), query.name
            sent = encode_message(plan_to_wire(record))
            assert sent == encode_message(reference_plans.descriptor(tree)), query.name
            planned = PlanningResult(plan=record, planning_ms=planning_ms)
            wire_ms, descriptor = decode_message(encode_message(planning_to_wire(planned)))
            back = PlanningResult(plan=plan_from_wire(descriptor, query), planning_ms=wire_ms)
            assert back == planned, query.name
            assert encode_message(plan_to_wire(back.plan)) == sent, query.name
            assert execution_from_wire(decode_message(encode_message(execution_to_wire(result)))) == result


@pytest.mark.parametrize("name", CORPORA)
def test_encoder_arrays(request, name):
    workload = request.getfixturevalue(name)
    db = workload.database
    encoder = PlanEncoder(
        db.catalog, max_nodes=2 * max(workload.max_query_tables, 2)
    )
    entries = request.getfixturevalue(CORPORA[name]).entries
    triples = [(entry.query, plan, tree) for entry in entries for plan, tree in zip(entry.plans, entry.trees)]
    got = encoder._encode_batch([(query, record) for query, record, _ in triples])
    want = reference_encoding.encode_batch(encoder, [(query, tree) for query, _, tree in triples])
    for g, w, (query, _, _) in zip(got, want, triples):
        for field in FIELDS:
            assert np.array_equal(getattr(g, field), getattr(w.real_nodes(), field)), (query.name, field)
