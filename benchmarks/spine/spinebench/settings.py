"""What the spine benchmark measures, fixed for every commit.

``BENCHMARK.json`` at the repo root is the contract the pipeline reads;
the tables below are the same contract in the form the harness uses
(``tests/test_spine_cli.py`` asserts the two agree).  Nothing here may
depend on the commit under test: a later change is judged against
numbers a parent commit produced under these exact settings.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Dataset scale and seed.  The dataset seed is *not* ``--seed``: across
#: dataset seeds JOB plans/s moves by 10 %, p95 by 50 % and Stack GMRL
#: between 0.86 and 2.09 on unchanged code, which would bury every bound
#: below.  ``--seed`` orders the requests instead (see ``README.md``).
SCALE = 0.04
DATASET_SEED = 1

#: ``FossConfig`` keyword arguments; the AAM keeps its default size (the
#: old serving benches shrink it, which hides the model's share).
FOSS_CONFIG = dict(
    max_steps=3,
    episodes_per_update=90,
    bootstrap_episodes=30,
    aam_retrain_threshold=80,
    random_sample_episodes=8,
    validation_budget=120,
    seed=7,
)
#: ``--smoke`` only: a doctor small enough for a unit test.  Numbers from
#: a smoke run are not comparable with anything.
SMOKE_FOSS_CONFIG = dict(
    FOSS_CONFIG, episodes_per_update=8, bootstrap_episodes=4, random_sample_episodes=2,
    validation_budget=8,
)
SMOKE_AAM = dict(
    d_model=32, d_embed=8, d_state=32, num_heads=2, num_layers=1, ff_hidden=32, epochs=1
)
SMOKE_SCALE = 0.02
SMOKE_QUERIES = 12  # queries per cold pass

SERVING_ITERATIONS = 1  # a serving doctor: bootstrap + one iteration
TRAIN_ITERATIONS = 4  # job_train

BATCH_SIZE = 16  # max_batch_size of every ticketed service
HOT_QUERIES = 16  # job_hot working set
HOT_ZIPF = 1.1
HOT_RATE_RPS = 1000.0  # job_hot open-loop schedule
HOT_RATE_SHARE = 2.0 / 3.0  # of a round's time spent in the rate phase
HOT_ROUNDS = 5
HOT_SYNC_RPS = 3500.0  # sizes the closed loop: about what one caller completes per second
PINGS = 200  # RPC floor probe on the remote workload

WORKLOADS: List[Tuple[str, str]] = [
    (
        "job_cold",
        "JOB, 4-17-table joins, one caller, every cache empty: the paper's Fig. 6; "
        "the pure-Python expert DP is the bill",
    ),
    (
        "stack_cold",
        "Stack, at most 6 tables, bursts of 16 through the ticket path: DP is small, "
        "so state network, encoding and bind carry it",
    ),
    (
        "stack_remote",
        "stack_cold's trace and driver over a repro-engine subprocess on loopback: "
        "the only difference is the wire",
    ),
    (
        "job_hot",
        "16 warmed JOB queries, Zipf 1.1, started service: open loop at 1000 req/s, "
        "then one caller in a closed loop; only bind and the service are left",
    ),
    (
        "job_train",
        "session.train(4) from an empty buffer, then one cold served pass: the only "
        "workload that runs nn with the tape and the executor",
    ),
]

# name, unit, better, bound (share of the parent's median).  The timing
# bounds are the widest the contract allows: on this shared 2-vCPU VM ten
# runs of one tree, scaled by the machine's slowness (``probe.py``), spread
# 3-9 % in an ordinary quarter of an hour and up to 17 % in the busiest one
# seen (README, "Run-to-run spread"), and one bound serves all five
# workloads.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("plan_ms_p50", "ms", "lower", 0.25),
    ("plan_ms_p90", "ms", "lower", 0.25),
    ("plans_per_s", "1/s", "higher", 0.25),
    ("episodes_per_s", "1/s", "higher", 0.25),
    ("gmrl_all", "ratio", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.25),  # job_cold peaks at 339 or 380 MB by request order
]

#: Span name per wrapped public method; also the layer vocabulary of the
#: budget.  Order is the order a request crosses them.
LAYERS: List[str] = [
    "api.service.sync",
    "api.service.submit",
    "api.service.flush",
    "api.session.load",
    "sql.bind",
    "core.inference.optimize",
    "core.batching.run",
    "engine.plan",
    "engine.hints",
    "engine.execute",
    "core.encoding.encode",
    "core.aam.state",
    "core.aam.head",
    "core.aam.train",
    "rl.policy.act",
    "rl.ppo.update",
]

_COUNTERS: List[Tuple[str, str, str]] = [
    ("trace.unattributed_share", "share", "lower"),
    ("trace.overhead_x", "x", "lower"),
    ("trace.spans", "count", "lower"),
    ("engine.executions", "count", "lower"),
    ("engine.plan_cache", "count", "lower"),
    ("engine.hint_cache", "count", "lower"),
    ("engine.latency_cache", "count", "lower"),
    ("engine.remote.rpcs", "count", "lower"),
    ("engine.remote.rpcs_per_plan", "1/plan", "lower"),
    ("engine.remote.ping_us", "us", "lower"),
    ("engine.remote.server_rss_mb", "MB", "lower"),
    ("api.service.cache_hit_rate", "share", "higher"),
    ("api.service.mean_batch_occupancy", "count", "higher"),
    ("api.service.batches", "count", "lower"),
    ("api.service.stage_queue_p95_ms", "ms", "lower"),
    ("api.service.expired", "count", "lower"),
    ("api.service.rejected", "count", "lower"),
    ("core.inference.candidates_per_plan", "1/plan", "lower"),
    ("core.inference.changed_share", "share", "higher"),
    ("core.trainer.bootstrap_s", "s", "lower"),
    ("core.trainer.iter_s_p50", "s", "lower"),
    ("core.trainer.aam_retrains", "count", "lower"),
    ("core.trainer.executions", "count", "lower"),
    ("core.trainer.gmrl_test", "ratio", "lower"),
    ("loadgen.offered_rps", "1/s", "higher"),
    ("loadgen.achieved_rps", "1/s", "higher"),
    ("loadgen.rate_ms_p50", "ms", "lower"),
    ("loadgen.rate_ms_p90", "ms", "lower"),
    ("loadgen.late_ms_p95", "ms", "lower"),
]

PER_LAYER: List[Tuple[str, str, str]] = [
    entry
    for layer in LAYERS
    for entry in (
        (f"{layer}.self_s", "s", "lower"),
        (f"{layer}.calls", "count", "lower"),
        (f"{layer}.share", "share", "lower"),
    )
] + _COUNTERS


def units() -> Dict[str, str]:
    """Unit by metric name, both tables."""
    return {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
