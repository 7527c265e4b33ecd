"""Serving-throughput micro-bench: 1 vs N client threads.

Drives a started ``OptimizerService`` (background flusher, micro-batched
submissions) with a shuffled serving trace from 1 and from N concurrent
client threads, and records requests/sec for both into the ``serving``
section of ``BENCH_throughput.json`` (read-modify-write: the other
benches' sections are preserved).

Interpretation: the GIL plus a CPython-bound optimizer means client
threads cannot add compute — what threading buys is *overlap* (clients
submit/bind while the flusher plans) and bigger micro-batches per flush.
On the 1-CPU CI box the threaded number mostly measures lock/condvar
overhead and is NOT meaningful as a speedup; the machine block rides
along so the figure cannot be misread.  No speedup is asserted — the
assertions are parity (threaded plans == sequential plans) and liveness.

Run with ``pytest benchmarks/test_serving_throughput.py`` (excluded from
tier-1 by ``testpaths``).
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np
import pytest
from bench_results import RESULTS_PATH, update_results

from repro.api import FossConfig, FossSession
from repro.core.aam import AAMConfig
from repro.optimizer.plans import plan_signature
from repro.workloads.job import build_job_workload

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.03"))
NUM_REQUESTS = int(os.environ.get("REPRO_SERVE_REQUESTS", "96"))
CLIENT_THREADS = int(os.environ.get("REPRO_SERVE_THREADS", "4"))
UNIQUE_QUERIES = 12
WAIT_S = 120.0


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
    return [sqls[i] for i in rng.permutation(
        np.arange(NUM_REQUESTS) % len(sqls)
    )]


def drive(service, sqls, num_threads: int, submit_kwargs=None):
    """(requests/sec, results) for ``num_threads`` submit+wait client threads."""
    results = [None] * len(sqls)
    errors = []
    kwargs = submit_kwargs or {}

    def client(thread_index: int) -> None:
        try:
            for i in range(thread_index, len(sqls), num_threads):
                ticket = service.submit(sqls[i], **kwargs)
                results[i] = service.wait(ticket, timeout=WAIT_S)
        except Exception as exc:
            errors.append(repr(exc))

    threads = [
        threading.Thread(target=client, args=(t,), daemon=True)
        for t in range(num_threads)
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
def test_serving_throughput():
    workload = build_job_workload(scale=BENCH_SCALE, seed=1)
    sqls = serving_trace(workload)
    with FossSession.open(workload=workload, config=serving_config()) as session:
        # Sequential ground truth (and engine/model cache warm-up, so both
        # timed runs below pay the same marginal cost per request).
        reference = {
            sql: plan_signature(session.service().optimize_sql(sql).plan)
            for sql in set(sqls)
        }

        rates = {}
        outcomes = {}
        for num_threads in (1, CLIENT_THREADS):
            service = session.service(max_batch_size=16)
            with service.start():
                rates[num_threads], results = drive(service, sqls, num_threads)
            outcomes[num_threads] = service.stats()
            # Concurrency parity: plans are bitwise-identical to the
            # sequential single-threaded path, whatever the thread count.
            assert [plan_signature(r.plan.plan) for r in results] == [
                reference[sql] for sql in sqls
            ]

    speedup = rates[CLIENT_THREADS] / rates[1]
    cpu_count = os.cpu_count()
    payload = {
        "num_requests": NUM_REQUESTS,
        "unique_queries": UNIQUE_QUERIES,
        "client_threads": CLIENT_THREADS,
        "rps_1_thread": round(rates[1], 2),
        f"rps_{CLIENT_THREADS}_threads": round(rates[CLIENT_THREADS], 2),
        "threaded_vs_single": round(speedup, 2),
        "mean_batch_occupancy_threaded": round(
            outcomes[CLIENT_THREADS]["mean_batch_occupancy"], 2
        ),
        "cache_hit_rate": round(outcomes[CLIENT_THREADS]["cache_hit_rate"], 3),
    }
    if (cpu_count or 1) < 4:
        payload["note"] = (
            f"recorded on a {cpu_count}-core machine: the threaded number "
            "measures lock/condvar overhead under the GIL, not a speedup"
        )
    update_results({"serving": payload})

    print(
        f"\n=== serving throughput: 1 thread {rates[1]:.1f} req/s, "
        f"{CLIENT_THREADS} threads {rates[CLIENT_THREADS]:.1f} req/s "
        f"({speedup:.2f}x) over {NUM_REQUESTS} requests ==="
    )
    # Liveness + accounting; plan parity was asserted per run above.
    for stats in outcomes.values():
        assert stats["requests"] == stats["served"] + stats["failures"]
        assert stats["failures"] == 0
        assert stats["pending"] == 0


@pytest.mark.bench
def test_admission_control_overhead():
    """What the request-lifecycle machinery costs on the serving hot path.

    The same threaded trace is driven twice: once through a bare service
    (no queue bound, no contexts minted beyond the defaults) and once
    with the full lifecycle engaged — ``max_pending`` admission checks on
    every submit plus a generous per-request ``deadline_s`` (so every
    budget check runs but nothing ever expires).  The ratio lands in the
    ``serving.admission`` block of ``BENCH_throughput.json``.  No bound
    is asserted — both numbers are lock-dominated on a 1-CPU box — only
    the lifecycle accounting (nothing rejected, nothing expired, same
    plans).
    """
    workload = build_job_workload(scale=BENCH_SCALE, seed=1)
    sqls = serving_trace(workload)
    with FossSession.open(workload=workload, config=serving_config()) as session:
        reference = {
            sql: plan_signature(session.service().optimize_sql(sql).plan)
            for sql in set(sqls)
        }

        runs = {
            "unguarded": (dict(), None),
            "guarded": (
                dict(max_pending=max(len(sqls), 1)),
                dict(deadline_s=600.0, priority=0),
            ),
        }
        rates = {}
        stats = {}
        for name, (service_kwargs, submit_kwargs) in runs.items():
            service = session.service(max_batch_size=16, **service_kwargs)
            with service.start():
                rates[name], results = drive(
                    service, sqls, CLIENT_THREADS, submit_kwargs=submit_kwargs
                )
            stats[name] = service.stats()
            assert [plan_signature(r.plan.plan) for r in results] == [
                reference[sql] for sql in sqls
            ]

    guarded = stats["guarded"]
    assert guarded["rejected"] == 0 and guarded["expired"] == 0
    assert guarded["requests"] == guarded["served"]
    overhead = rates["unguarded"] / rates["guarded"] if rates["guarded"] else 0.0

    # Merge into the serving section without clobbering the throughput
    # bench's keys (update_results replaces whole top-level sections).
    existing_serving = {}
    try:
        existing_serving = json.loads(RESULTS_PATH.read_text()).get("serving", {})
    except (ValueError, OSError):
        pass
    existing_serving["admission"] = {
        "rps_unguarded": round(rates["unguarded"], 2),
        "rps_guarded": round(rates["guarded"], 2),
        "overhead_x": round(overhead, 3),
        "max_pending": max(len(sqls), 1),
        "deadline_s": 600.0,
        "stage_total_p95_ms": round(guarded["stage_total_p95_ms"], 3),
        "stage_queue_p95_ms": round(guarded["stage_queue_p95_ms"], 3),
    }
    update_results({"serving": existing_serving})

    print(
        f"\n=== admission/deadline overhead: unguarded "
        f"{rates['unguarded']:.1f} req/s, guarded {rates['guarded']:.1f} "
        f"req/s ({overhead:.3f}x) over {NUM_REQUESTS} requests ==="
    )
