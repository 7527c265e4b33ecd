"""Remote-engine micro-bench: serving over a socket vs in-process.

Stands up an in-thread ``EngineServer`` over its own engine (rebuilt from
the spec, so client and server genuinely do not share caches), then
records into the ``remote`` section of ``BENCH_throughput.json`` (via the
shared read-modify-write helper, so the episode/serving sections survive):

* ``ping_rps`` — raw framed-RPC round trips per second: the ceiling the
  framing and the JSON codec impose;
* ``serve_local_rps`` / ``serve_remote_rps`` — a serving trace through
  ``optimize_sql`` with the engine in-process vs behind the socket.

Interpretation: on one box (and especially the 1-CPU CI container) the
remote figure measures framing/RPC overhead, NOT scaling — client and
server compete for the same core and every RPC pays a loopback round
trip.  The subsystem pays off when the server owns different hardware.
No speedup is asserted; the assertions are parity (remote plans ==
in-process plans) and liveness.

Run with ``pytest benchmarks/test_remote_throughput.py`` (excluded from
tier-1 by ``testpaths``).
"""

from __future__ import annotations

import os
import time

import numpy as np
from bench_results import update_results

from repro.api import FossConfig, FossSession
from repro.core.aam import AAMConfig
from repro.engine.remote import EngineServer, RemoteBackend
from repro.optimizer.plans import plan_signature
from repro.workloads.job import build_job_workload

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.03"))
NUM_REQUESTS = int(os.environ.get("REPRO_REMOTE_REQUESTS", "48"))
NUM_PINGS = int(os.environ.get("REPRO_REMOTE_PINGS", "200"))
UNIQUE_QUERIES = 8


def bench_config(url: str = "") -> FossConfig:
    return FossConfig(
        max_steps=3,
        seed=23,
        engine_url=url,
        aam=AAMConfig(
            d_model=32, d_embed=8, d_state=32, num_heads=2, num_layers=1,
            ff_hidden=32, epochs=1,
        ),
    )


def serving_trace(workload) -> list:
    sqls = [wq.sql for wq in workload.train[:UNIQUE_QUERIES]]
    rng = np.random.default_rng(5)
    return [sqls[i] for i in rng.permutation(np.arange(NUM_REQUESTS) % len(sqls))]


def drive(session, trace) -> tuple:
    service = session.service()
    start = time.perf_counter()
    plans = [plan_signature(service.optimize_sql(sql).plan) for sql in trace]
    elapsed = time.perf_counter() - start
    return plans, len(trace) / max(elapsed, 1e-9)


def test_remote_serving_throughput():
    workload = build_job_workload(scale=BENCH_SCALE, seed=1)
    trace = serving_trace(workload)

    with EngineServer(workload.spec.build_database(), owns_backend=True) as server:
        server.start()

        # Raw RPC floor: one tiny frame each way per ping.
        with RemoteBackend(server.url, database=workload.database) as probe:
            start = time.perf_counter()
            for _ in range(NUM_PINGS):
                probe.ping()
            ping_rps = NUM_PINGS / max(time.perf_counter() - start, 1e-9)

        with FossSession.open(workload=workload, config=bench_config()) as local:
            local_plans, local_rps = drive(local, trace)
        with FossSession.open(
            workload=workload, config=bench_config(server.url)
        ) as remote:
            assert isinstance(remote.backend, RemoteBackend)
            remote_plans, remote_rps = drive(remote, trace)

    assert remote_plans == local_plans, "remote serving diverged from in-process"
    assert local_rps > 0 and remote_rps > 0 and ping_rps > 0

    update_results(
        {
            "remote": {
                "scale": BENCH_SCALE,
                "requests": NUM_REQUESTS,
                "unique_queries": UNIQUE_QUERIES,
                "ping_rps": round(ping_rps, 1),
                "serve_local_rps": round(local_rps, 2),
                "serve_remote_rps": round(remote_rps, 2),
                "remote_over_local": round(remote_rps / max(local_rps, 1e-9), 3),
                "note": (
                    "loopback, shared core: measures framing/RPC overhead, not "
                    "scaling; re-record with the server on separate hardware"
                ),
            }
        }
    )
