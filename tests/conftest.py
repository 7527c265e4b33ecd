"""Shared fixtures: tiny workloads so the suite stays fast."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.remote import EngineServer
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
