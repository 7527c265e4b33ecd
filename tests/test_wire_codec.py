"""The wire codec against the objects it replaces: nothing is lost in transit.

A plan crosses the engine wire as a descriptor of names and numbers and is
rebuilt over the receiver's own query (:mod:`repro.engine.wire`).  Every
plan of the fixture-plan corpus (``doctor_edits``: each JOB, Stack and
TPC-DS query's expert plan and two doctor-like edits) is held ``==``
through the codec, as a ``PlanningResult`` and with its ``ExecutionResult``,
by ``test_plan_record.py::test_descriptor_text_and_wire``.

Here: a query crosses as the SQL text it was bound from; every workload
query records that text, and ``to_sql()`` (what a hand-built query sends)
rebinds to an equal query.  Floats cross exactly, a descriptor must fit
its query, a bushy tree never becomes a plan, and every op's well-formed
body passes ``check_body``.
"""

from __future__ import annotations

import math

import pytest

from repro.core.icp import IncompletePlan
from repro.engine.wire import (
    OPS,
    check_body,
    decode_message,
    encode_message,
    options_to_wire,
    plan_from_wire,
    plan_to_wire,
    query_to_wire,
)
from repro.optimizer.dp import OptimizerOptions
from reference_plans import JoinNode, ScanNode, to_record, to_tree
from repro.sql.binder import bind_query
from repro.sql.parser import parse_query

WORKLOADS = ["job_workload", "stack_workload", "tpcds_workload"]


def _through_the_wire(value):
    return decode_message(encode_message(value))


def _scans(plan):
    if isinstance(plan, ScanNode):
        return [plan]
    return _scans(plan.left) + _scans(plan.right)


@pytest.mark.parametrize("name", WORKLOADS)
def test_queries_cross_as_their_text(request, name):
    workload = request.getfixturevalue(name)
    db = workload.database
    for wq in workload.all_queries:
        query = wq.query
        assert query.sql_text() == wq.sql
        rebound = bind_query(parse_query(query.to_sql()), db.catalog, name=query.name)
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
    """A bushy tree over every alias of a four-table query, each join with
    the predicates its two sides share."""
    db = job_workload.database
    query = next(w.query for w in job_workload.all_queries if w.query.num_tables == 4)
    a, b, c, d = _scans(to_tree(db.plan(query).plan))

    def join(left, right):
        sides = ({s.alias for s in _scans(left)}, {s.alias for s in _scans(right)})
        predicates = tuple(
            p for p in query.join_predicates
            if {p.left.alias, p.right.alias} & sides[0] and {p.left.alias, p.right.alias} & sides[1]
        )
        return JoinNode(left=left, right=right, method="hash", predicates=predicates)

    return query, join(join(a, b), join(c, d))


def test_non_left_deep_plan_refused_client_side(job_workload):
    """A plan is a left-deep record, so no client holds a bushy plan to send:
    the one place a tree still becomes a plan, the test-side converter,
    refuses one rather than flattening it into another plan."""
    query, bushy = _bushy(job_workload)
    with pytest.raises(ValueError, match="left-deep"):
        to_record(bushy, query)
    left_deep = to_tree(job_workload.database.plan(query).plan)
    assert plan_to_wire(to_record(left_deep, query)) == plan_to_wire(
        job_workload.database.plan(query).plan
    )


def _well_formed_bodies(job_workload):
    """One well-formed body per op; a batch body holds two items."""
    query = job_workload.train[0].query
    plan = job_workload.database.plan(query).plan
    icp = IncompletePlan(plan.aliases, plan.methods)
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
    which returns the op's table entry; ``plan_many``, the one op that takes
    request contexts, picks the queries they must align with out of the body."""
    body = decode_message(encode_message(_well_formed_bodies(job_workload)[kind]))
    op = check_body(kind, body)
    assert op is OPS[kind]
    if kind == "plan_many":
        assert len(op.batch(body)) == 2
    else:
        assert op.batch is None
