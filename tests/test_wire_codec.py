"""The wire codec against the objects it replaces: nothing is lost in transit.

A plan crosses the engine wire as a descriptor of names and numbers and is
rebuilt over the receiver's own query (:mod:`repro.engine.wire`).  For every
JOB, Stack and TPC-DS query — its expert plan plus one swap-edited and one
override-edited hint plan, the same edits the encoder's reference test
uses — the descriptor, sent through the JSON codec, must come back as

* a ``PlanningResult`` ``==`` the original (every node, filter, predicate,
  estimate and the planning time),
* with the same ``plan_signature``,
* the same ``PlanEncoder`` arrays,
* and the same ``ExecutionResult`` on the local engine.

A query crosses as the SQL text it was bound from; every workload query
records that text, and ``to_sql()`` (what a hand-built query sends)
rebinds to an equal query.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.core.encoding import EncodedPlan, PlanEncoder
from repro.core.icp import IncompletePlan
from repro.engine.database import HARD_CAP_MS, PlanningResult
from repro.engine.remote import EngineServer, RemoteBackend
from repro.engine.wire import (
    OPS,
    check_body,
    decode_message,
    encode_message,
    execution_from_wire,
    execution_to_wire,
    options_to_wire,
    plan_from_wire,
    plan_to_wire,
    planning_to_wire,
    query_to_wire,
)
from repro.optimizer.dp import OptimizerOptions
from repro.optimizer.plans import JoinNode, ScanNode, plan_signature
from repro.sql.binder import bind_query
from repro.sql.parser import parse_query

WORKLOADS = ["job_workload", "stack_workload", "tpcds_workload"]
FIELDS = [f.name for f in dataclasses.fields(EncodedPlan)]


def _through_the_wire(value):
    return decode_message(encode_message(value))


def _planned(workload):
    """``(query, PlanningResult)``: every expert plan, plus one swap- and one
    override-edited hint plan per query of three or more tables."""
    db = workload.database
    planned = []
    for wq in workload.all_queries:
        expert = db.plan(wq.query)
        planned.append((wq.query, expert))
        icp = IncompletePlan.extract(expert.plan)
        if icp.num_tables >= 3:
            other = "merge" if icp.methods[-1] != "merge" else "nestloop"
            for edit in (icp.swap(1, icp.num_tables), icp.override(icp.num_joins, other)):
                planned.append((wq.query, db.plan_with_hints(wq.query, edit.order, edit.methods)))
    return planned


def _scans(plan):
    if isinstance(plan, ScanNode):
        return [plan]
    return _scans(plan.left) + _scans(plan.right)


@pytest.mark.parametrize("name", WORKLOADS)
def test_plans_survive_descriptor_and_rebuild(request, name):
    workload = request.getfixturevalue(name)
    db = workload.database
    planned = _planned(workload)
    assert len(planned) > len(workload.all_queries)
    rebuilt = []
    for query, result in planned:
        planning_ms, descriptor = _through_the_wire(planning_to_wire(result))
        back = PlanningResult(plan=plan_from_wire(descriptor, query), planning_ms=planning_ms)
        assert back == result, query.name
        assert plan_signature(back.plan) == plan_signature(result.plan)
        rebuilt.append((query, back.plan))

    # Two encoders, so no cache can hand one side the other's arrays.
    def encoder():
        return PlanEncoder(
            db.schema, max_nodes=2 * max(workload.max_query_tables, 2), statistics=db.statistics
        )

    want = encoder()._encode_batch([(query, result.plan) for query, result in planned])
    got = encoder()._encode_batch(rebuilt)
    for g, w in zip(got, want):
        for field in FIELDS:
            assert np.array_equal(getattr(g, field), getattr(w, field)), field

    for (query, result), (_query, plan) in zip(planned, rebuilt):
        original = db.executor.execute(query, result.plan, timeout_ms=HARD_CAP_MS)
        assert db.executor.execute(query, plan, timeout_ms=HARD_CAP_MS) == original, query.name
        assert execution_from_wire(_through_the_wire(execution_to_wire(original))) == original


@pytest.mark.parametrize("name", WORKLOADS)
def test_queries_cross_as_their_text(request, name):
    workload = request.getfixturevalue(name)
    db = workload.database
    for wq in workload.all_queries:
        query = wq.query
        assert query.sql_text() == wq.sql
        rebound = bind_query(parse_query(query.to_sql()), db.schema, db.storage, name=query.name)
        assert rebound == query, query.name
        assert rebound.sql_text() == query.to_sql()  # hand-built: no recorded text


def test_floats_round_trip_exactly():
    values = [0.1, 1 / 3, 5e-324, 1.7976931348623157e308, -0.0, math.inf, -math.inf]
    back = _through_the_wire(values)
    assert [v.hex() for v in back] == [v.hex() for v in values]
    assert math.isnan(_through_the_wire([math.nan])[0])


def test_a_descriptor_must_fit_its_query(job_workload):
    db = job_workload.database
    big = next(wq.query for wq in job_workload.all_queries if wq.query.num_tables >= 5)
    small = next(wq.query for wq in job_workload.all_queries if wq.query.num_tables < 5)
    descriptor = plan_to_wire(db.plan(big).plan)
    with pytest.raises(ValueError, match="does not fit"):
        plan_from_wire(descriptor, small)


def _bushy(job_workload):
    db = job_workload.database
    query = next(w.query for w in job_workload.all_queries if w.query.num_tables >= 4)
    a, b, c, d = _scans(db.plan(query).plan)[:4]
    right = JoinNode(left=c, right=d, method="hash")
    return query, JoinNode(left=JoinNode(left=a, right=b, method="hash"), right=right, method="hash")


def test_non_left_deep_plan_refused_client_side(job_workload):
    query, bushy = _bushy(job_workload)
    with pytest.raises(ValueError, match="left-deep"):
        plan_to_wire(bushy)
    with EngineServer(job_workload.spec.build_database()) as server:
        server.start()
        with RemoteBackend(server.url, database=job_workload.database, timeout_s=60.0) as remote:
            before = server.backend.executions
            for call in (
                lambda: remote.execute(query, bushy),
                lambda: remote.execute_many([(query, bushy, None)]),
            ):
                with pytest.raises(ValueError, match="left-deep"):
                    call()
            assert server.backend.executions == before
            assert remote.ping()


def _well_formed_bodies(job_workload):
    """One well-formed body per op; a batch body holds two items."""
    query = job_workload.train[0].query
    plan = job_workload.database.plan(query).plan
    icp = IncompletePlan.extract(plan)
    wire_query, wire_plan = query_to_wire(query), plan_to_wire(plan)
    options = options_to_wire(OptimizerOptions(disabled_methods=frozenset({"merge"})))
    hint = [wire_query, list(icp.order), list(icp.methods)]
    return {
        "ping": None,
        "fingerprint": None,
        "stats": None,
        "clear_caches": None,
        "plan_many": [[wire_query, wire_query], options],
        "hint_many": [hint, hint],
        "execute_many": [[wire_query, wire_plan, 500.0], [wire_query, wire_plan, None]],
    }


@pytest.mark.parametrize("kind", sorted(OPS))
def test_check_body_returns_the_op_and_its_batch_items(job_workload, kind):
    """A well-formed body, sent through the JSON codec, passes ``check_body``,
    which returns the op's table entry; a batch op picks the items its
    request contexts must align with out of the body."""
    body = decode_message(encode_message(_well_formed_bodies(job_workload)[kind]))
    op = check_body(kind, body)
    assert op is OPS[kind]
    if op.batch is None:
        assert body is None
    else:
        assert len(op.batch(body)) == 2
