"""What repro.obs costs on the serving hot path (the ≤5% contract).

The same threaded serving trace is driven through fresh services with
observability fully engaged (tracing on, every submit ``traced=True``)
and fully disabled (``obs.set_enabled(False)`` — the ``REPRO_OBS=0``
path), in alternating A/B rounds, so drift on a noisy CI box hits both
sides equally.  The contract under test:

* disabled runs take the exact pre-obs code path — zero spans recorded,
  plans bitwise-identical to the enabled runs and to sequential serving;
* the enabled/disabled throughput ratio stays within ``OVERHEAD_MAX``
  (1.05, i.e. ≤5% overhead).

A Prometheus scrape and a JSON snapshot of the live registry are written
at the repo root (``BENCH_obs_scrape.prom`` / ``BENCH_obs_snapshot.json``)
as CI artifacts.  The trace is ``REPRO_SERVE_REQUESTS`` requests (default
96) over a JOB workload at ``REPRO_BENCH_SCALE``.

Run with ``pytest benchmarks/test_obs_overhead.py`` (excluded from
tier-1 by ``testpaths``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import BENCH_SCALE

from repro import obs
from repro.api import FossConfig, FossSession
from repro.core.aam import AAMConfig
from repro.optimizer.plans import plan_signature
from repro.workloads.job import build_job_workload

NUM_REQUESTS = int(os.environ.get("REPRO_SERVE_REQUESTS", "96"))
CLIENT_THREADS = 4
UNIQUE_QUERIES = 12
WAIT_S = 120.0
OVERHEAD_MAX = 1.05
ROUNDS = 5
ARTIFACT_DIR = Path(__file__).resolve().parent.parent


def serving_config() -> FossConfig:
    return FossConfig(
        max_steps=3,
        seed=23,
        aam=AAMConfig(
            d_model=32, d_embed=8, d_state=32, num_heads=2, num_layers=1,
            ff_hidden=32, epochs=1,
        ),
    )


def serving_trace(workload) -> list:
    sqls = [wq.sql for wq in workload.train[:UNIQUE_QUERIES]]
    rng = np.random.default_rng(5)
    return [sqls[i] for i in rng.permutation(np.arange(NUM_REQUESTS) % len(sqls))]


def drive(service, sqls):
    """(requests/sec, results) for ``CLIENT_THREADS`` traced submit+wait clients."""
    results = [None] * len(sqls)
    errors = []

    def client(thread_index: int) -> None:
        try:
            for i in range(thread_index, len(sqls), CLIENT_THREADS):
                ticket = service.submit(sqls[i], traced=True)
                results[i] = service.wait(ticket, timeout=WAIT_S)
        except Exception as exc:
            errors.append(repr(exc))

    threads = [
        threading.Thread(target=client, args=(t,), daemon=True)
        for t in range(CLIENT_THREADS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(WAIT_S)
    elapsed = time.perf_counter() - start
    assert not any(thread.is_alive() for thread in threads), "clients hung"
    assert not errors, errors
    assert all(result is not None and result.ok for result in results)
    return len(sqls) / elapsed, results


@pytest.mark.bench
def test_obs_overhead():
    workload = build_job_workload(scale=BENCH_SCALE, seed=1)
    sqls = serving_trace(workload)
    with FossSession.open(workload=workload, config=serving_config()) as session:
        # Sequential ground truth + cache warm-up (identical marginal cost
        # per request for every timed run below).
        reference = {
            sql: plan_signature(session.service().optimize_sql(sql).plan)
            for sql in set(sqls)
        }

        rates = {"off": [], "on": []}
        signatures = {}
        previous = obs.enabled()
        try:
            for _ in range(ROUNDS):
                # Alternate within each round: off then on, so slow drift
                # (thermal, other tenants) cancels out of the ratio.
                for mode in ("off", "on"):
                    obs.set_enabled(mode == "on")
                    tracer = obs.get_tracer()
                    tracer.clear()
                    service = session.service(max_batch_size=16)
                    with service.start():
                        rate, results = drive(service, sqls)
                    rates[mode].append(rate)
                    signatures[mode] = [
                        plan_signature(r.plan.plan) for r in results
                    ]
                    if mode == "off":
                        # The disabled path is the exact pre-obs path:
                        # no trace ids minted, not one span recorded.
                        assert len(tracer) == 0, "disabled run recorded spans"
                    else:
                        assert len(tracer) > 0, "enabled run recorded no spans"
        finally:
            obs.set_enabled(previous)

        # Bitwise plan parity: obs on/off and sequential all agree.
        expected = [reference[sql] for sql in sqls]
        assert signatures["off"] == expected
        assert signatures["on"] == expected

    # Best-of-rounds for the asserted ratio: a shared CI box stalls runs
    # at random, and the fastest round of each mode is the one least
    # polluted by interference.
    rps_off = max(rates["off"])
    rps_on = max(rates["on"])
    overhead = rps_off / rps_on if rps_on else 0.0

    # CI artifacts: a real Prometheus scrape and a JSON snapshot of the
    # registry the enabled runs populated.
    scrape_path = ARTIFACT_DIR / "BENCH_obs_scrape.prom"
    snapshot_path = ARTIFACT_DIR / "BENCH_obs_snapshot.json"
    obs.dump(str(scrape_path), registry=obs.get_registry(), fmt="prometheus")
    obs.dump(
        str(snapshot_path),
        registry=obs.get_registry(),
        tracer=obs.get_tracer(),
        sources=obs.snapshot_sources(),
        fmt="json",
    )
    assert "serving_latency_ms" in scrape_path.read_text()
    json.loads(snapshot_path.read_text())

    print(
        f"\n=== obs overhead: off {rps_off:.1f} req/s, on {rps_on:.1f} req/s "
        f"({overhead:.3f}x, budget {OVERHEAD_MAX}x) over {ROUNDS} rounds ==="
    )
    assert overhead <= OVERHEAD_MAX, (
        f"observability costs {overhead:.3f}x on the serving hot path "
        f"(budget {OVERHEAD_MAX}x)"
    )
