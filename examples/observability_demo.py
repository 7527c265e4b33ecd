"""Observability demo: traced serving, span trees and both exporters.

Opens a session, serves a handful of requests with ``traced=True`` so
each one carries a ``repro.obs`` trace id across the serving layers,
then uses the :meth:`FossSession.observability` facade to show what the
subsystem collected:

* the span tree of one request (``service.request`` root with the flush
  window and engine batch nested under it);
* the serving metrics as a Prometheus text scrape (the same bytes the
  opt-in ``repro-engine --metrics`` endpoint serves);
* the JSON snapshot (metrics + spans + registered sources), optionally
  dumped to a file with ``--dump``.

Tracing is gated by ``REPRO_OBS`` (``REPRO_OBS=0`` disables it); with it
off the same requests take the exact pre-observability code path — same
plans, zero spans.

Run:  python examples/observability_demo.py [--scale 0.03] [--requests 8]
      [--dump obs_snapshot.json]
"""

from __future__ import annotations

import argparse
import json

from repro import obs
from repro.api import FossConfig, FossSession
from repro.core.aam import AAMConfig


def demo_config() -> FossConfig:
    return FossConfig(
        max_steps=3,
        seed=7,
        aam=AAMConfig(
            d_model=32, d_embed=8, d_state=32, num_heads=2, num_layers=1,
            ff_hidden=32, epochs=1,
        ),
    )


def print_tree(nodes, depth=0):
    for node in nodes:
        start, end = node["start_s"], node["end_s"]
        took = f"{(end - start) * 1000:.2f} ms" if end is not None else "open"
        attrs = node.get("attrs") or {}
        extra = f"  {attrs}" if attrs else ""
        print(f"  {'  ' * depth}{node['name']}  [{took}, {node['status']}]{extra}")
        print_tree(node["children"], depth + 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.03)
    parser.add_argument("--requests", type=int, default=8)
    parser.add_argument("--dump", default=None,
                        help="write the JSON snapshot to this path")
    args = parser.parse_args()

    if not obs.enabled():
        print("REPRO_OBS=0: tracing is disabled; metrics still collect, "
              "but no spans will appear below.")

    print(f"Opening a FOSS session (scale={args.scale})...")
    with FossSession.open("job", scale=args.scale, seed=1, config=demo_config()) as session:
        facade = session.observability()
        sqls = [wq.sql for wq in session.workload.train[:4]]
        trace_ids = []

        print(f"Serving {args.requests} traced requests through a started service...")
        service = session.service(max_batch_size=4)
        with service.start():
            for i in range(args.requests):
                ticket = service.submit(sqls[i % len(sqls)], traced=True)
                result = service.wait(ticket, timeout=120.0)
                assert result.ok, f"request {i} failed: {result.status}"
                if ticket.context is not None and ticket.context.trace_id:
                    trace_ids.append(ticket.context.trace_id)

        # --------------------------------------------------------------
        # One request's span tree, joined by parent links.
        # --------------------------------------------------------------
        if trace_ids:
            trace_id = trace_ids[-1]
            print(f"\nSpan tree of the last request (trace {trace_id}):")
            print_tree(facade.trace_tree(trace_id))
        else:
            print("\nNo traces recorded (tracing disabled).")

        # --------------------------------------------------------------
        # Prometheus scrape: the serving metrics the registry collected.
        # --------------------------------------------------------------
        scrape = facade.prometheus()
        serving_lines = [
            line for line in scrape.splitlines()
            if line.startswith(("serving_cache", "serving_batches"))
        ]
        print(f"\nPrometheus scrape: {len(scrape.splitlines())} lines; "
              "the serving counters:")
        for line in serving_lines[:8]:
            print(f"  {line}")

        # --------------------------------------------------------------
        # JSON snapshot: metrics + spans + registered sources.
        # --------------------------------------------------------------
        snap = facade.snapshot()
        stats = service.stats()
        print(f"\nJSON snapshot: {len(snap['metrics'])} metrics, "
              f"{len(snap['spans'])} spans, sources={sorted(snap['sources'])}")
        print(f"service.stats(), the counts the registry reads: "
              f"{stats['requests']:.0f} requests, cache hit rate "
              f"{stats['cache_hit_rate']:.0%}, p50 {stats['latency_p50_ms']:.2f} ms, "
              f"queue p95 {stats['stage_queue_p95_ms']:.2f} ms")

        if args.dump:
            path = facade.dump(args.dump)
            size = len(json.dumps(facade.snapshot()))
            print(f"Snapshot dumped to {path} (~{size} bytes)")

    print("\nDone: one trace per request, every span joined under its "
          "service.request root, exportable as Prometheus text or JSON.")


if __name__ == "__main__":
    main()
