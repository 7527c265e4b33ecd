"""What repro.obs costs on the serving hot path (the ≤5% contract).

The same threaded serving trace is driven through fresh services with
observability fully engaged (tracing on, every submit ``traced=True``)
and fully disabled (``obs.set_enabled(False)`` — the ``REPRO_OBS=0``
path), in alternating A/B rounds with medians, so drift on a noisy CI
box hits both sides equally.  The contract under test:

* disabled runs take the exact pre-obs code path — zero spans recorded,
  plans bitwise-identical to the enabled runs and to sequential serving;
* the enabled/disabled throughput ratio stays within
  ``REPRO_OBS_OVERHEAD_MAX`` (default 1.05, i.e. ≤5% overhead).

The ratio lands in the ``serving.obs_overhead`` block of
``BENCH_throughput.json``; a Prometheus scrape and a JSON snapshot of
the live registry are written next to it (``BENCH_obs_scrape.prom`` /
``BENCH_obs_snapshot.json``) as CI artifacts.

Run with ``pytest benchmarks/test_obs_overhead.py`` (excluded from
tier-1 by ``testpaths``).
"""

from __future__ import annotations

import json
import os
import statistics

import pytest
from bench_results import RESULTS_PATH, update_results
from test_serving_throughput import CLIENT_THREADS, drive, serving_config, serving_trace

from repro import obs
from repro.api import FossSession
from repro.optimizer.plans import plan_signature
from repro.workloads.job import build_job_workload

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.03"))
OVERHEAD_MAX = float(os.environ.get("REPRO_OBS_OVERHEAD_MAX", "1.05"))
ROUNDS = int(os.environ.get("REPRO_OBS_BENCH_ROUNDS", "5"))


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
                        rate, results = drive(
                            service,
                            sqls,
                            CLIENT_THREADS,
                            submit_kwargs=dict(traced=True),
                        )
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
    # polluted by interference.  Medians ride along in the payload.
    rps_off = max(rates["off"])
    rps_on = max(rates["on"])
    overhead = rps_off / rps_on if rps_on else 0.0

    # CI artifacts: a real Prometheus scrape and a JSON snapshot of the
    # registry the enabled runs populated.
    scrape_path = RESULTS_PATH.parent / "BENCH_obs_scrape.prom"
    snapshot_path = RESULTS_PATH.parent / "BENCH_obs_snapshot.json"
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

    # Merge into the serving section without clobbering sibling benches.
    existing_serving = {}
    try:
        existing_serving = json.loads(RESULTS_PATH.read_text()).get("serving", {})
    except (ValueError, OSError):
        pass
    existing_serving["obs_overhead"] = {
        "rps_obs_off": round(rps_off, 2),
        "rps_obs_on": round(rps_on, 2),
        "overhead_x": round(overhead, 3),
        "median_rps_obs_off": round(statistics.median(rates["off"]), 2),
        "median_rps_obs_on": round(statistics.median(rates["on"]), 2),
        "rounds": ROUNDS,
        "client_threads": CLIENT_THREADS,
        "budget_x": OVERHEAD_MAX,
    }
    update_results({"serving": existing_serving})

    print(
        f"\n=== obs overhead: off {rps_off:.1f} req/s, on {rps_on:.1f} req/s "
        f"({overhead:.3f}x, budget {OVERHEAD_MAX}x) over {ROUNDS} rounds ==="
    )
    assert overhead <= OVERHEAD_MAX, (
        f"observability costs {overhead:.3f}x on the serving hot path "
        f"(budget {OVERHEAD_MAX}x)"
    )
