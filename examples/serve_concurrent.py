"""Concurrent serving demo: threaded clients + tenants sharing one engine.

Part one stands up one ``OptimizerService`` with its background flusher
running and drives it from several client threads — submissions from all
threads are micro-batched into shared flushes (size- and time-triggered),
and every client blocks on ``wait(ticket)`` for its own outcome.

Part two opens two tenant sessions over ONE shared engine backend: each
tenant has its own session/optimizer/service/memo/stats, and both serve
from concurrent threads through the one engine.

Plans served under concurrency are bitwise-identical to sequential
serving — the demo checks this — only ordering and telemetry differ.
Thread counts here buy overlap and batching, not CPU parallelism: on a
single-core box the req/s figures measure plumbing, not speedup.

Run:  python examples/serve_concurrent.py [--scale 0.03] [--threads 4]
      [--requests 32]
"""

from __future__ import annotations

import argparse
import threading
import time

import numpy as np

from repro.api import FossConfig, FossSession
from repro.core.aam import AAMConfig
from repro.optimizer.plans import plan_signature


def demo_config() -> FossConfig:
    return FossConfig(
        max_steps=3,
        seed=7,
        aam=AAMConfig(
            d_model=32, d_embed=8, d_state=32, num_heads=2, num_layers=1,
            ff_hidden=32, epochs=1,
        ),
    )


def serving_trace(workload, requests: int):
    sqls = [wq.sql for wq in workload.train[:8]]
    rng = np.random.default_rng(11)
    return [sqls[i] for i in rng.permutation(np.arange(requests) % len(sqls))]


def drive_clients(submit, wait, sqls, num_threads: int):
    """Each client thread submits its share and waits for its outcomes."""
    results = [None] * len(sqls)
    errors = []

    def client(thread_index: int) -> None:
        try:
            for i in range(thread_index, len(sqls), num_threads):
                ticket = submit(sqls[i])
                results[i] = wait(ticket)
        except Exception as exc:
            errors.append(f"client {thread_index}: {exc!r}")

    threads = [
        threading.Thread(target=client, args=(t,), daemon=True)
        for t in range(num_threads)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    assert not errors, f"client threads failed: {errors}"
    return results, len(sqls) / elapsed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.03)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--requests", type=int, default=32)
    args = parser.parse_args()

    # ------------------------------------------------------------------
    # Part 1: one service, many client threads
    # ------------------------------------------------------------------
    print(f"Opening a FOSS session (scale={args.scale})...")
    with FossSession.open("job", scale=args.scale, seed=1, config=demo_config()) as session:
        sqls = serving_trace(session.workload, args.requests)
        print(f"Sequential reference pass over {len(set(sqls))} unique queries...")
        reference = {
            sql: plan_signature(session.service().optimize_sql(sql).plan)
            for sql in set(sqls)
        }

        print(f"Serving {len(sqls)} requests from {args.threads} client threads "
              "through one started service...")
        # max_pending bounds the queue (a full one raises a typed
        # AdmissionRejectedError at submit); sized to the trace here so
        # the demo exercises the check without ever rejecting.
        service = session.service(max_batch_size=8, max_pending=max(len(sqls), 8))
        with service.start():
            results, rps = drive_clients(
                service.submit,
                lambda ticket: service.wait(ticket, timeout=120.0),
                sqls,
                args.threads,
            )
        assert all(r.ok for r in results), "concurrent serving produced failed tickets"
        matched = sum(
            plan_signature(r.plan.plan) == reference[sql]
            for sql, r in zip(sqls, results)
        )
        assert matched == len(sqls), (
            f"only {matched}/{len(sqls)} threaded plans matched the sequential path"
        )
        stats = service.stats()
        print(f"  {rps:.0f} req/s; {matched}/{len(sqls)} plans identical to the "
              "sequential path")
        print(f"  batches: {stats['batches']:.0f} "
              f"(mean occupancy {stats['mean_batch_occupancy']:.1f}), "
              f"cache hit rate {stats['cache_hit_rate']:.0%}")
        print(f"  lifecycle: {stats['expired']:.0f} expired, "
              f"{stats['rejected']:.0f} rejected, stage p95 "
              f"queue {stats['stage_queue_p95_ms']:.1f} ms / "
              f"engine {stats['stage_engine_p95_ms']:.1f} ms / "
              f"total {stats['stage_total_p95_ms']:.1f} ms\n")

    # ------------------------------------------------------------------
    # Part 2: two tenant sessions over one shared engine
    # ------------------------------------------------------------------
    print("Opening tenants alpha+beta: two sessions over one shared local engine...")
    with FossSession.open("job", scale=args.scale, seed=1, config=demo_config()) as alpha, \
            FossSession.open(workload=alpha.workload, config=demo_config(),
                             backend=alpha.backend) as beta:
        # beta borrows alpha's backend: closing beta leaves it open, and
        # alpha, which built it, closes it last.
        services = {
            name: session.service(tenant=name, max_pending=max(args.requests, 8))
            for name, session in (("alpha", alpha), ("beta", beta))
        }
        per_tenant = {}

        def tenant_client(tenant: str) -> None:
            service = services[tenant]
            trace = serving_trace(alpha.workload, args.requests // 2)
            tickets = [service.submit(sql) for sql in trace]
            outcomes = [service.wait(t, timeout=120.0) for t in tickets]
            per_tenant[tenant] = sum(r.ok for r in outcomes)

        for service in services.values():
            service.start()
        threads = [
            threading.Thread(target=tenant_client, args=(tenant,), daemon=True)
            for tenant in services
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for tenant, service in services.items():
            service.stop()
            stats = service.stats()
            print(f"  {tenant}: {per_tenant[tenant]} requests served ok "
                  f"({stats['expired']:.0f} expired, {stats['rejected']:.0f} rejected), "
                  f"cache hit rate {stats['cache_hit_rate']:.0%}, "
                  f"p50 {stats['latency_p50_ms']:.1f} ms, "
                  f"stage total p95 {stats['stage_total_p95_ms']:.1f} ms")
        print(f"  shared backend: {alpha.backend.stats()}")
    print("\nDone: concurrent and multi-tenant serving returned the same plans "
          "the single-threaded path would.")


if __name__ == "__main__":
    main()
