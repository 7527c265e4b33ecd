"""Shared fixtures: tiny workloads so the suite stays fast."""

from __future__ import annotations

import contextlib
import functools

import numpy as np
import pytest

from doctor_edits import Corpus
from repro.engine.remote import EngineServer
from repro.nn import functional, layers
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


@pytest.fixture(scope="session")
def job_corpus(job_workload):
    """The fixture-plan corpus (``doctor_edits``) of each workload."""
    return Corpus(job_workload)


@pytest.fixture(scope="session")
def stack_corpus(stack_workload):
    return Corpus(stack_workload)


@pytest.fixture(scope="session")
def tpcds_corpus(tpcds_workload):
    return Corpus(tpcds_workload)


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
    """``(array function name, output bytes)`` for every call, in order;
    ``op`` is the function or its wrapper."""

    def calls(self, op) -> int:
        return sum(1 for name, _ in self if name == op.__name__)

    def bytes(self, op) -> int:
        return sum(nbytes for name, nbytes in self if name == op.__name__)


#: (module, name) of every call site the spy wraps: the array functions
#: every module forward is composed of, where ``repro.nn.layers`` calls them
#: and where ``repro.core.aam`` and ``tests/reference_tape.py``'s ops do
#: (through ``repro.nn.functional``).
SPIED = (
    (layers, "linear"), (functional, "linear"),
    (layers, "attend_segments"), (functional, "attend_segments"),
    (layers, "normalize"),
)


class OpSpy:
    """The array functions ``linear``, ``attend_segments`` and
    ``normalize``, wrapped for one test.  Inside :meth:`record` every call
    is logged with the size of the output it returns (the first item of a
    returned tuple), keyed by the function's name, so a forward is sized by
    the bytes its dense layers, attention and norms write."""

    def __init__(self, monkeypatch) -> None:
        self.log = None
        spy = self
        for module, name in SPIED:
            fn = getattr(module, name)

            @functools.wraps(fn)
            def spied(*args, _fn=fn, **kwargs):
                out = _fn(*args, **kwargs)
                if spy.log is not None:
                    spy.log.append((_fn.__name__, (out[0] if isinstance(out, tuple) else out).nbytes))
                return out

            monkeypatch.setattr(module, name, spied)

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
