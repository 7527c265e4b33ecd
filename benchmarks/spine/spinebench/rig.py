"""What every workload shares: one run's state, the doctor, the engine
subprocess, correctness tallies and teardown.

Only public API is driven: ``FossSession.open/train/save/load``,
``session.service()``, ``OptimizerService.*``, ``EngineBackend.*``,
``python -m repro.engine.remote`` and ``evaluate_optimizer``.
"""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import FossConfig, FossSession, OptimizedPlan, OptimizeError
from repro.core.aam import AAMConfig
from repro.experiments.harness import evaluate_optimizer
from repro.optimizer.plans import plan_signature
from repro.workloads.base import WorkloadQuery

from spinebench import probe, settings
from spinebench.trace import Tracer

SPINE_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = SPINE_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
WORK_ROOT = SPINE_DIR / ".run"  # saved doctors and server logs; in .gitignore
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

clock = time.perf_counter


class Bench:
    """One run of one workload: settings, tallies, and what to tear down."""

    def __init__(self, seed: int, seconds: float, traced: bool, smoke: bool, started: float):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.smoke = smoke
        self.started = started  # perf_counter at process start
        self.setup_s: Optional[float] = None  # scaled by the machine's slowness, see scaled()
        self.setup_raw_s: Optional[float] = None
        self.rng = np.random.default_rng(seed)
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []  # first few failures, for the log
        self.samples: Dict[str, int] = {}
        self.exit = contextlib.ExitStack()
        self._threads_before = set(threading.enumerate())
        self.sampler = probe.Sampler().start()
        self.exit.callback(self.sampler.stop)
        WORK_ROOT.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=WORK_ROOT)
        self.exit.callback(self._remove_workdir)

    # -- settings ------------------------------------------------------
    @property
    def scale(self) -> float:
        return settings.SMOKE_SCALE if self.smoke else settings.SCALE

    def foss_config(self) -> FossConfig:
        if self.smoke:
            return FossConfig(aam=AAMConfig(**settings.SMOKE_AAM), **settings.SMOKE_FOSS_CONFIG)
        return FossConfig(**settings.FOSS_CONFIG)

    def served(self, queries: Sequence[WorkloadQuery]) -> List[WorkloadQuery]:
        return list(queries[: settings.SMOKE_QUERIES] if self.smoke else queries)

    # -- set-up and tallies -------------------------------------------
    def scaled(self, starts: Sequence[float], ends: Sequence[float]) -> np.ndarray:
        """Seconds each stretch ``[start, end]`` took, divided by the machine's
        slowness while it ran (``probe.py``)."""
        starts, ends = np.asarray(starts, dtype=float), np.asarray(ends, dtype=float)
        return (ends - starts) / self.sampler.slowness(starts, ends)

    def setup_done(self) -> None:
        """Everything before the first timed operation is set-up."""
        if self.setup_s is None:
            now = clock()
            self.setup_raw_s = now - self.started
            self.setup_s = float(self.scaled([self.started], [now])[0])

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 5:
            self.problems.append(why)

    def check_plans(self, reference: Dict[str, str], outcomes: Sequence[Tuple[str, object]]) -> None:
        """Each (sql, OptimizedPlan-or-error) must equal the reference plan."""
        self.attempted += len(outcomes)
        for sql, outcome in outcomes:
            if not isinstance(outcome, OptimizedPlan):
                self.fail(1, f"no plan for {sql[:60]!r}: {outcome!r}")
            elif plan_signature(outcome.plan) != reference[sql]:
                self.fail(1, f"plan differs from the sequential local reference: {sql[:60]!r}")

    def check_service(self, service, sent: int) -> Dict[str, float]:
        """Every request sent is accounted for and nothing is left queued."""
        snapshot = service.stats()
        accounted = snapshot["served"] + snapshot["failures"] + snapshot["expired"]
        if snapshot["requests"] != accounted or snapshot["requests"] != sent or snapshot["pending"]:
            self.fail(
                abs(sent - snapshot["served"]) or 1,
                f"service accounting: sent {sent}, stats {snapshot['requests']} requests = "
                f"{snapshot['served']} served + {snapshot['failures']} failures + "
                f"{snapshot['expired']} expired, {snapshot['pending']} pending",
            )
        return snapshot

    # -- teardown ------------------------------------------------------
    def _remove_workdir(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no concurrent run is using it

    def close(self) -> List[str]:
        """Tear everything down, then name whatever survived."""
        self.exit.close()
        survivors = [
            f"thread {thread.name}"
            for thread in threading.enumerate()
            if thread.is_alive() and thread not in self._threads_before
        ]
        survivors += [f"child process {pid}" for pid in _child_pids()]
        if os.path.exists(self.workdir):
            survivors.append(f"work directory {self.workdir}")
        return survivors


def _child_pids() -> List[int]:
    """Live children of this process (Linux; empty where /proc has no list)."""
    pids: List[int] = []
    for listing in Path("/proc/self/task").glob("*/children"):
        with contextlib.suppress(OSError):
            pids += [int(pid) for pid in listing.read_text().split()]
    return pids


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def stamp(bench: Bench) -> Dict[str, object]:
    """Where and how a result was measured."""
    revision = "unknown"
    if (REPO_ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            revision = subprocess.run(
                ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
    return {
        "git_revision": revision,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": bench.seed,
        "seconds": bench.seconds,
        "smoke": bench.smoke,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "repro_obs": os.environ.get("REPRO_OBS", "default"),
        "setup_raw_s": bench.setup_raw_s,
        # the machine's slowness over the run: p10, p50, p90 of the probe's samples
        "slowness": [round(float(q), 3) for q in np.percentile(bench.sampler.readings(), [10, 50, 90])],
        "samples": bench.samples,
    }


# ----------------------------------------------------------------------
# serving passes, quality, the doctor
# ----------------------------------------------------------------------
Outcomes = List[Tuple[str, object]]  # (SQL, OptimizedPlan or the error)


def ask(service, sql: str) -> object:
    """One synchronous request: the OptimizedPlan, or the error as an outcome."""
    try:
        return service.optimize_sql(sql)
    except OptimizeError as exc:
        return exc


class _ServedPlans:
    """``evaluate_optimizer`` wants an optimizer; answer from a served pass."""

    def __init__(self, queries: Sequence[WorkloadQuery], plans: Dict[str, OptimizedPlan]):
        self._plans = {wq.query.signature(): plans[wq.sql] for wq in queries}

    def optimize(self, query) -> OptimizedPlan:
        return self._plans[query.signature()]


def gmrl(backend, queries: Sequence[WorkloadQuery], plans: Dict[str, OptimizedPlan]) -> float:
    """GMRL of served plans against the expert's (executes both, untimed)."""
    return evaluate_optimizer(backend, queries, _ServedPlans(queries, plans)).gmrl


def plan_digest(queries: Sequence[WorkloadQuery], signatures: Dict[str, str]) -> str:
    """crc32 over the chosen plan signatures in workload order."""
    crc = 0
    for wq in queries:
        crc = zlib.crc32(signatures[wq.sql].encode("utf-8"), crc)
    return f"{crc & 0xFFFFFFFF:08x}"


def train(bench: Bench, session: FossSession, iterations: int) -> Dict[str, float]:
    """``session.train(iterations)`` from an empty buffer, bootstrap included.

    ``episodes_per_s`` is over the wall scaled by the machine's slowness
    while it trained (``Bench.scaled``).
    """
    config = session.config
    start = clock()
    history = session.train(iterations)
    end = clock()
    raw = end - start
    scaled = float(bench.scaled([start], [end])[0])
    episodes = config.bootstrap_episodes + sum(
        entry.episodes + config.random_sample_episodes for entry in history
    )
    bench.samples["episodes"] = episodes
    bench.samples["train_raw_s"] = round(raw, 3)
    return {
        "train_wall_s": scaled,
        "train_raw_s": raw,
        "episodes_per_s": episodes / scaled,
        "core.trainer.bootstrap_s": raw - sum(entry.elapsed_s for entry in history),
        "core.trainer.iter_s_p50": statistics.median(e.elapsed_s for e in history),
        # bootstrap always trains the AAM once
        "core.trainer.aam_retrains": 1 + sum(entry.aam_trained for entry in history),
        "core.trainer.executions": sum(entry.executions for entry in history),
    }


@dataclass
class Doctor:
    """A trained, saved doctor and what it answers, from an untimed pass."""

    saved: str
    queries: List[WorkloadQuery]
    reference: Dict[str, str]  # SQL -> plan signature (sequential, LocalBackend)
    values: Dict[str, float] = field(default_factory=dict)


def describe(session: FossSession, queries: Sequence[WorkloadQuery]) -> Tuple[Dict[str, str], Dict[str, float]]:
    """Reference plans and quality from one untimed sequential local pass."""
    service = session.service()
    # an error here is a broken set-up: the lookups below raise on it
    plans = {wq.sql: ask(service, wq.sql) for wq in queries}
    test_sqls = {wq.sql for wq in session.workload.test}
    test = [wq for wq in queries if wq.sql in test_sqls]
    reference = {sql: plan_signature(plan.plan) for sql, plan in plans.items()}
    values = {
        "gmrl_all": gmrl(session.backend, queries, plans),
        "core.trainer.gmrl_test": gmrl(session.backend, test, plans) if test else 0.0,
        "core.inference.candidates_per_plan": float(
            np.mean([plan.candidates_considered for plan in plans.values()])
        ),
        "core.inference.changed_share": float(
            np.mean([plan.chosen_step > 0 for plan in plans.values()])
        ),
    }
    return reference, values


def serving_doctor(bench: Bench, name: str, pick=None) -> Doctor:
    """Bootstrap + one iteration, saved once; the set-up of a serving workload."""
    saved = os.path.join(bench.workdir, "doctor")
    os.makedirs(saved)
    with FossSession.open(
        name, scale=bench.scale, seed=settings.DATASET_SEED, config=bench.foss_config()
    ) as session:
        values = train(bench, session, settings.SERVING_ITERATIONS)
        session.save(saved)
        queries = bench.served(session.workload.all_queries)
        if pick is not None:
            queries = pick(queries)
        reference, quality = describe(session, queries)
    values.update(quality)
    values["plan_digest"] = plan_digest(queries, reference)
    return Doctor(saved, queries, reference, values)


# ----------------------------------------------------------------------
# the engine server subprocess
# ----------------------------------------------------------------------
@contextlib.contextmanager
def engine_server(bench: Bench, name: str) -> Iterator[Tuple[str, subprocess.Popen]]:
    """``python -m repro.engine.remote`` on a loopback port of the OS's choosing."""
    log_path = os.path.join(bench.workdir, "engine.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.engine.remote", name,
                "--scale", str(bench.scale), "--seed", str(settings.DATASET_SEED), "--port", "0",
            ],
            stdout=log, stderr=subprocess.STDOUT,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        )
    try:
        yield _await_listening(proc, log_path), proc
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _await_listening(proc: subprocess.Popen, log_path: str, timeout_s: float = 60.0) -> str:
    marker = "listening on "
    deadline = clock() + timeout_s
    while clock() < deadline:
        with open(log_path) as log:
            text = log.read()
        if marker in text:
            return text.split(marker, 1)[1].split()[0]
        if proc.poll() is not None:
            break
        time.sleep(0.02)
    raise RuntimeError(f"repro-engine did not come up: {Path(log_path).read_text()[-500:]!r}")


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set of another live process (Linux ``VmHWM``), else 0."""
    with contextlib.suppress(OSError, ValueError, IndexError):
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0
