"""Shared fixtures: tiny workloads so the suite stays fast."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.engine.remote import EngineServer
from repro.nn.tensor import Function
from repro.workloads.job import build_job_workload
from repro.workloads.stack import build_stack_workload
from repro.workloads.tpcds import build_tpcds_workload


@pytest.fixture(scope="session")
def job_workload():
    """A miniature JOB workload (full 113 queries, tiny tables)."""
    return build_job_workload(scale=0.03, seed=1)


@pytest.fixture(scope="session")
def tpcds_workload():
    return build_tpcds_workload(scale=0.03, seed=2)


@pytest.fixture(scope="session")
def stack_workload():
    return build_stack_workload(scale=0.03, seed=3)


@pytest.fixture(scope="session")
def job_database(job_workload):
    return job_workload.database


@pytest.fixture(scope="module")
def engine_url(job_workload):
    """A live engine server over a rebuild of the JOB workload's spec."""
    with EngineServer(job_workload.spec.build_database()) as server:
        server.start()
        yield server.url


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class OpLog(list):
    """``(op class, output bytes)`` for every op applied, in order."""

    def calls(self, op) -> int:
        return sum(1 for cls, _ in self if cls is op)

    def bytes(self, op) -> int:
        return sum(nbytes for cls, nbytes in self if cls is op)


class OpSpy:
    """``Function.apply``, the one op site of ``repro.nn``, wrapped for one
    test.  Inside :meth:`forbid` (raise mode) any op fails the test: a path
    that builds no loss must not reach the tape at all, not even for a
    graph-free tensor.  Inside :meth:`record` (count mode) every op is
    logged with its output's size."""

    def __init__(self, monkeypatch) -> None:
        self.log = None
        self.forbidden: list = []
        self._raising = False
        apply = Function.apply.__func__
        spy = self

        def spied(cls, *operands, **options):
            if spy._raising:
                spy.forbidden.append(cls)
                raise AssertionError(f"{cls.__name__} reached the tape on a path that builds no loss")
            out = apply(cls, *operands, **options)
            if spy.log is not None:
                spy.log.append((cls, out.data.nbytes))
            return out

        monkeypatch.setattr(Function, "apply", classmethod(spied))

    @contextlib.contextmanager
    def forbid(self):
        self._raising, self.forbidden = True, []
        try:
            yield
        finally:
            self._raising = False
        # also when the code under test swallowed the AssertionError
        assert not self.forbidden, [cls.__name__ for cls in self.forbidden]

    @contextlib.contextmanager
    def record(self):
        self.log = log = OpLog()
        try:
            yield log
        finally:
            self.log = None


@pytest.fixture()
def op_spy(monkeypatch):
    return OpSpy(monkeypatch)
