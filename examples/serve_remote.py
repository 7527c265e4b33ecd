"""Remote engine demo: a session and two tenants over a socket-served engine.

The deployment shape this demonstrates (the paper's "doctor steering a
live optimizer" as a client/server system):

1. a ``repro-engine`` server owns the dataset and the expert engine —
   here launched as a subprocess unless ``REPRO_ENGINE_URL`` (or
   ``--url``) points at one you started yourself, e.g.::

       repro-engine job --scale 0.05 --port 7733

2. a client ``FossSession`` opens with ``engine_url=tcp://host:port``:
   SQL binds locally against the catalog the server sent in its
   handshake (the client generates no rows), while planning and
   execution RPCs travel as length-prefixed crc32 frames;

3. two tenant sessions opened over that one ``RemoteBackend`` serve the
   same plans — a tenant is a session, whether the engine it shares is in
   process or behind a socket.

The demo checks the determinism contract as it goes: plans served over
the wire are bitwise-identical to an in-process session's.  On one box
the req/s you see is framing/RPC overhead, not scaling — the point of
the subsystem is that the server can live on a different machine.

Run:  python examples/serve_remote.py [--scale 0.03] [--requests 12]
      [--url tcp://host:port]
"""

from __future__ import annotations

import argparse
import os
import select
import subprocess
import sys
import time

from repro.api import FossConfig, FossSession
from repro.core.aam import AAMConfig
from repro.engine.remote import RemoteBackend
from repro.optimizer.plans import plan_signature


def demo_config(url: str = "") -> FossConfig:
    return FossConfig(
        max_steps=3,
        seed=7,
        engine_url=url,
        aam=AAMConfig(
            d_model=32, d_embed=8, d_state=32, num_heads=2, num_layers=1,
            ff_hidden=32, epochs=1,
        ),
    )


def launch_server(scale: float, timeout_s: float = 300.0):
    """Start ``repro-engine`` as a subprocess; return (process, url)."""
    command = [
        sys.executable, "-m", "repro.engine.remote",
        "job", "--scale", str(scale), "--seed", "1", "--port", "0",
    ]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    deadline = time.monotonic() + timeout_s
    url = None
    # The server prints a machine-readable "listening on tcp://..." line
    # once the dataset is built; wait for it, but never block past the
    # deadline on a wedged-but-silent server (select before each read).
    while time.monotonic() < deadline:
        remaining = deadline - time.monotonic()
        ready, _, _ = select.select([process.stdout], [], [], max(remaining, 0.0))
        if not ready:
            break
        line = process.stdout.readline()
        if not line:
            break  # server exited
        print(f"  [server] {line.rstrip()}")
        if "listening on tcp://" in line:
            url = line.split("listening on ", 1)[1].split()[0]
            break
    if url is None:
        process.terminate()
        raise RuntimeError("repro-engine did not come up")
    return process, url


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.03)
    parser.add_argument("--requests", type=int, default=12)
    parser.add_argument("--url", default=os.environ.get("REPRO_ENGINE_URL", ""),
                        help="attach to a running repro-engine instead of spawning one")
    args = parser.parse_args()

    process = None
    if args.url:
        url = args.url
        print(f"attaching to repro-engine at {url}")
    else:
        print(f"spawning repro-engine (job, scale={args.scale})...")
        process, url = launch_server(args.scale)

    try:
        print(f"\nopening a session against {url} ...")
        with FossSession.open(
            "job", scale=args.scale, seed=1, config=demo_config(url)
        ) as session:
            assert isinstance(session.backend, RemoteBackend)
            print(f"  handshake OK, catalog of {session.backend.catalog.fingerprint}")

            sqls = [wq.sql for wq in session.workload.train[: args.requests]]
            service = session.service()
            start = time.perf_counter()
            remote_plans = [plan_signature(service.optimize_sql(s).plan) for s in sqls]
            elapsed = time.perf_counter() - start
            print(
                f"  optimized {len(sqls)} queries over the wire "
                f"({len(sqls) / elapsed:.1f} req/s loopback — RPC overhead, not scaling)"
            )

            print("\nchecking parity against an in-process session ...")
            with FossSession.open(
                "job", scale=args.scale, seed=1, config=demo_config()
            ) as local:
                local_plans = [
                    plan_signature(local.service().optimize_sql(s).plan) for s in sqls
                ]
            assert remote_plans == local_plans, "remote plans diverged from local!"
            print(f"  bitwise-identical plans for all {len(sqls)} queries")

            print("\ntwo tenant sessions sharing ONE remote backend ...")
            for tenant in ("alpha", "beta"):
                # An injected backend is borrowed: closing the tenant's
                # session leaves it open for the next tenant and the owner.
                with FossSession.open(
                    workload=session.workload, config=demo_config(), backend=session.backend
                ) as tenant_session:
                    tenant_service = tenant_session.service(tenant=tenant)
                    plans = [
                        plan_signature(tenant_service.optimize_sql(s).plan) for s in sqls[:4]
                    ]
                    assert plans == local_plans[:4]
                    print(f"  tenant {tenant!r}: {len(plans)} plans, parity OK")
            stats = session.backend.stats()
            print(
                f"  shared backend: {stats['backend']} -> "
                f"server={stats['server_backend']} "
                f"(executions={stats['server_executions']})"
            )
        print("\ndone: the engine never lived in this process.")
    finally:
        if process is not None:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()


if __name__ == "__main__":
    main()
