"""The five workloads.  Each takes a :class:`~spinebench.rig.Bench` and
returns every value it measured, keyed by metric name; ``cli`` prints
the end-to-end ones (untraced run) or the per-layer ones (traced run).

Why these five, and what each is expected to move, is in ``README.md``
and, one line each, in :data:`spinebench.settings.WORKLOADS`.
"""

from __future__ import annotations

import contextlib
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.api import FossSession
from repro.engine.remote import RemoteBackend
from repro.workloads.base import WorkloadQuery, WorkloadSpec

from spinebench import loadgen, settings, stats
from spinebench.rig import (
    Bench,
    Doctor,
    Outcomes,
    ask,
    clock,
    describe,
    engine_server,
    plan_digest,
    process_peak_rss_mb,
    serving_doctor,
    train,
)
from spinebench.trace import instrumented, layer_budget


@dataclass
class Pass:
    """One timed pass, as a driver returns it."""

    latencies_ms: np.ndarray  # per request, scaled by the machine's slowness
    segments_s: np.ndarray  # scaled walls that add up to the pass: per request, or per burst
    outcomes: Outcomes
    raw_s: float  # unscaled timed wall; span durations are unscaled too


@dataclass
class Tape:
    """The timed passes of one run.  Every pass replays the same requests."""

    passes: Dict[bool, List[Pass]] = field(default_factory=lambda: {False: [], True: []})
    traced_window_s: float = 0.0  # raw wall the spans were recorded over
    plans: int = 0
    rpcs: int = 0
    service: Dict[str, float] = field(default_factory=dict)  # stats() after the last pass
    engine: Dict[str, float] = field(default_factory=dict)

    def add(self, traced: bool, done: Pass) -> None:
        self.passes[traced].append(done)
        self.plans += len(done.outcomes)
        if traced:
            self.traced_window_s += done.raw_s

    def typical_s(self, traced: bool) -> float:
        """Median scaled wall of a pass."""
        return statistics.median(float(done.segments_s.sum()) for done in self.passes[traced])


def tracing(bench: Bench, traced: bool):
    return instrumented(bench.tracer) if traced else contextlib.nullcontext()


def repeat(bench: Bench, one_pass: Callable[[bool], None]) -> None:
    """Run passes until ``--seconds`` is used up (two at least).

    In a traced run every other pass is traced, so the untraced passes
    beside them give the tracing overhead under the same conditions.
    """
    bench.setup_done()
    begin = clock()
    done = 0
    while True:
        one_pass(bench.traced and done % 2 == 1)
        done += 1
        elapsed = clock() - begin
        # start another pass only if at least half of it fits
        if done >= (4 if bench.traced else 2) and elapsed + 0.5 * elapsed / done > bench.seconds:
            return


def finish(bench: Bench, doctor_values: Dict[str, float], tape: Tape) -> Dict[str, float]:
    """Metric values from the doctor's figures, the tape and the trace.

    Passes repeat the same requests, so each request's latency and each
    segment's wall is the median of its (scaled) repeats over the untraced
    passes: a burst of interference too short for the probe to see then
    costs one repeat.
    """
    values = dict(doctor_values)
    untraced = tape.passes[False]
    latencies = np.median([done.latencies_ms for done in untraced], axis=0)
    segments = np.median([done.segments_s for done in untraced], axis=0)
    values["plan_ms_p50"] = float(np.percentile(latencies, 50))
    values["plan_ms_p90"] = float(np.percentile(latencies, 90))
    values["plans_per_s"] = len(latencies) / float(segments.sum())
    bench.samples["passes"] = len(untraced)
    bench.samples["requests_per_pass"] = len(latencies)
    bench.samples["supported_percentile"] = stats.supported_percentile(len(latencies))
    bench.samples["pass_raw_s"] = round(statistics.median(done.raw_s for done in untraced), 4)
    traced = tape.passes[True]
    if traced:
        slowness = sum(done.raw_s for done in traced) / sum(
            float(done.segments_s.sum()) for done in traced
        )
        values.update(
            layer_budget(
                bench.tracer.spans, tape.traced_window_s, len(traced), settings.LAYERS, slowness
            )
        )
        values["trace.overhead_x"] = tape.typical_s(True) / tape.typical_s(False)
    for key in ("cache_hit_rate", "mean_batch_occupancy", "batches", "stage_queue_p95_ms",
                "expired", "rejected"):
        values[f"api.service.{key}"] = tape.service.get(key, 0.0)
    # a RemoteBackend reports its client-side memos, not the server's caches
    values["engine.executions"] = tape.engine.get("executions", 0)
    values["engine.plan_cache"] = tape.engine.get("plan_cache", tape.engine.get("plan_memo", 0))
    values["engine.hint_cache"] = tape.engine.get("hint_cache", tape.engine.get("hint_memo", 0))
    values["engine.latency_cache"] = tape.engine.get("latency_cache", 0)
    return values


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------
def drive_sequential(bench: Bench, service, sqls: Sequence[str]) -> Pass:
    """One caller, one ``optimize_sql`` at a time; a segment is a request."""
    spans: List[Tuple[float, float]] = []
    outcomes: Outcomes = []
    for sql in sqls:
        start = clock()
        outcome = ask(service, sql)
        spans.append((start, clock()))
        outcomes.append((sql, outcome))
    scaled_s = bench.scaled(*zip(*spans))
    return Pass(scaled_s * 1000.0, scaled_s, outcomes, spans[-1][1] - spans[0][0])


def drive_bursts(bench: Bench, service, sqls: Sequence[str]) -> Pass:
    """One thread, un-started service: ``submit`` x16 then ``result``.

    The sixteenth submit fills the queue and flushes inline, so the
    optimizer and the engine see cohorts of sixteen; a request's latency
    runs from its own submit to its own ``result`` returning, and a
    segment is a burst.
    """
    spans: List[Tuple[float, float]] = []
    bursts: List[Tuple[float, float]] = []
    outcomes: Outcomes = []
    for first in range(0, len(sqls), settings.BATCH_SIZE):
        burst = clock()
        sent = []
        for sql in sqls[first : first + settings.BATCH_SIZE]:
            start = clock()
            sent.append((sql, start, service.submit(sql)))
        for sql, start, ticket in sent:
            result = service.result(ticket)
            spans.append((start, clock()))
            outcomes.append((sql, result.plan if result.ok else result))
        bursts.append((burst, clock()))
    return Pass(
        bench.scaled(*zip(*spans)) * 1000.0,
        bench.scaled(*zip(*bursts)),
        outcomes,
        bursts[-1][1] - bursts[0][0],
    )


@contextlib.contextmanager
def cold_session(bench: Bench, doctor: Doctor, traced: bool, backend=None) -> Iterator[FossSession]:
    """A fresh ``FossSession.load``: every cache from engine to service is empty."""
    if backend is not None:
        backend.clear_caches()  # the one piece of state that outlives the session
    with bench.tracer.span("api.session.load") if traced else contextlib.nullcontext():
        session = FossSession.load(doctor.saved, backend=backend)
    with session:
        yield session


def cold_pass(bench, doctor, tape, sqls, drive, traced=False, backend=None, **service_kwargs) -> None:
    """One cold pass: load, drive (timed), check every plan and the service's books."""
    with cold_session(bench, doctor, traced, backend) as session:
        service = session.service(**service_kwargs)
        rpcs = remote_rpcs()
        with tracing(bench, traced):
            done = drive(bench, service, sqls)
        tape.rpcs += remote_rpcs() - rpcs
        tape.add(traced, done)
        bench.check_plans(doctor.reference, done.outcomes)
        tape.service = bench.check_service(service, len(sqls))
        tape.engine = session.backend.stats()


def cold_workload(bench: Bench, name: str, drive, backend_factory=None, **service_kwargs) -> Dict[str, float]:
    """Cold passes over every query of ``name``, in an order drawn from the seed."""
    doctor = serving_doctor(bench, name)
    backend = backend_factory() if backend_factory is not None else None
    sqls = [doctor.queries[i].sql for i in bench.rng.permutation(len(doctor.queries))]
    tape = Tape()
    repeat(
        bench,
        lambda traced: cold_pass(bench, doctor, tape, sqls, drive, traced, backend, **service_kwargs),
    )
    values = finish(bench, doctor.values, tape)
    values["engine.remote.rpcs"] = tape.rpcs
    values["engine.remote.rpcs_per_plan"] = tape.rpcs / tape.plans
    return values


def remote_rpcs() -> int:
    """Framed round trips this process has made, from the obs registry."""
    counter = obs.get_registry().get("engine_remote_calls_total")
    return int(sum(child.value for _labels, child in counter.series())) if counter else 0


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def job_cold(bench: Bench) -> Dict[str, float]:
    return cold_workload(bench, "job", drive_sequential)


def stack_cold(bench: Bench) -> Dict[str, float]:
    return cold_workload(bench, "stack", drive_bursts, max_batch_size=settings.BATCH_SIZE)


def stack_remote(bench: Bench) -> Dict[str, float]:
    url, server = bench.exit.enter_context(engine_server(bench, "stack"))
    probe: Dict[str, float] = {}

    def connect() -> RemoteBackend:
        backend = RemoteBackend(
            url, spec=WorkloadSpec("stack", scale=bench.scale, seed=settings.DATASET_SEED)
        )
        bench.exit.callback(backend.close)
        pings = []
        for _ in range(settings.PINGS):
            start = clock()
            backend.ping()
            pings.append((clock() - start) * 1e6)
        probe["engine.remote.ping_us"] = statistics.median(pings)
        return backend

    values = cold_workload(
        bench, "stack", drive_bursts, backend_factory=connect, max_batch_size=settings.BATCH_SIZE
    )
    values.update(probe)
    values["engine.remote.server_rss_mb"] = process_peak_rss_mb(server.pid)
    return values


def hot_pick(queries: Sequence[WorkloadQuery]) -> List[WorkloadQuery]:
    """Sixteen queries at an even stride, so every join size is in the set."""
    stride = max(1, len(queries) // settings.HOT_QUERIES)
    return list(queries[::stride][: settings.HOT_QUERIES])


def zipf_draws(rng: np.random.Generator, population: int, count: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, population + 1) ** settings.HOT_ZIPF
    return rng.choice(population, size=count, p=weights / weights.sum())


def job_hot(bench: Bench) -> Dict[str, float]:
    """Warm memo, started service; each round an open-loop and a closed-loop phase.

    The end-to-end metrics come from the closed loop — one caller,
    ``optimize_sql`` on a hit, nothing but bind and the memo — because it
    runs on one thread.  The open loop's latency is mostly the 2 ms flush
    timer and three thread hand-offs; on this box it moved by half between
    a quiet and a busy quarter of an hour, so it is reported in the
    unbounded ``loadgen.*`` rows instead.
    """
    doctor = serving_doctor(bench, "job", pick=hot_pick)
    sqls = [wq.sql for wq in doctor.queries]
    session = bench.exit.enter_context(FossSession.load(doctor.saved))
    service = bench.exit.enter_context(session.service(max_batch_size=settings.BATCH_SIZE).start())

    def settle(records: List[loadgen.Sent]) -> None:
        bench.check_plans(
            doctor.reference,
            [
                (r.item, r.outcome.plan if getattr(r.outcome, "ok", False) else r.outcome)
                for r in records
            ],
        )

    warm = [loadgen.collect(service.wait, loadgen.dispatch(service.submit, sql, 0.0, 0.0)) for sql in sqls]
    settle(warm)
    sent = len(warm)

    rounds = settings.HOT_ROUNDS + (1 if bench.traced else 0)  # traced: three of each kind
    round_s = bench.seconds / rounds
    paced_requests = max(settings.BATCH_SIZE, int(settings.HOT_RATE_RPS * round_s * settings.HOT_RATE_SHARE))
    packed_requests = max(settings.BATCH_SIZE, int(settings.HOT_SYNC_RPS * round_s * (1 - settings.HOT_RATE_SHARE)))
    # One arrival sequence and one closed-loop sequence, replayed every round.
    arrivals = [sqls[i] for i in zipf_draws(bench.rng, len(sqls), paced_requests)]
    packed = [sqls[i] for i in zipf_draws(bench.rng, len(sqls), packed_requests)]
    tape = Tape()
    paced_ms: List[float] = []
    late_ms: List[float] = []
    achieved: List[float] = []

    bench.setup_done()
    for index in range(rounds):
        traced = bench.traced and index % 2 == 1
        with tracing(bench, traced):
            begin = clock()
            paced = loadgen.open_loop(service.submit, service.wait, arrivals, settings.HOT_RATE_RPS)
            open_s = clock() - begin
            done = drive_sequential(bench, service, packed)
        tape.add(traced, done)
        if traced:  # spans cover both phases; the overhead compares the closed loops
            tape.traced_window_s += open_s
        paced_ms.extend(r.latency_ms for r in paced)
        late_ms.extend(r.late_ms for r in paced)
        achieved.append(len(paced) / (max(r.done for r in paced) - paced[0].intended))
        settle(paced)
        bench.check_plans(doctor.reference, done.outcomes)
        sent += len(paced) + len(done.outcomes)
        tape.service = bench.check_service(service, sent)
    tape.engine = session.backend.stats()

    values = finish(bench, doctor.values, tape)
    values["loadgen.offered_rps"] = settings.HOT_RATE_RPS
    values["loadgen.achieved_rps"] = statistics.median(achieved)
    values["loadgen.rate_ms_p50"] = float(np.percentile(paced_ms, 50))  # pooled over rounds, raw
    values["loadgen.rate_ms_p90"] = float(np.percentile(paced_ms, 90))
    values["loadgen.late_ms_p95"] = float(np.percentile(late_ms, 95))
    return values


def job_train(bench: Bench) -> Dict[str, float]:
    def trained(traced: bool) -> Tuple[Dict[str, float], Doctor, Dict[str, float]]:
        """Train from an empty buffer (timed), save, and take the reference pass."""
        with FossSession.open(
            "job", scale=bench.scale, seed=settings.DATASET_SEED, config=bench.foss_config()
        ) as session:
            bench.setup_done()
            with tracing(bench, traced):
                values = train(bench, session, 1 if bench.smoke else settings.TRAIN_ITERATIONS)
            engine = session.backend.stats()
            saved = f"{bench.workdir}/doctor-{int(traced)}"
            session.save(saved)
            # a traced run trains twice, so it describes its doctors on the test split only
            queries = bench.served(session.workload.test if bench.traced else session.workload.all_queries)
            reference, quality = describe(session, queries)
            values.update(quality)
            values["plan_digest"] = plan_digest(queries, reference)
            return values, Doctor(saved, queries, reference), engine

    values, doctor, engine = trained(False)
    if bench.traced:
        traced_values, _, _ = trained(True)
        bench.attempted += 1
        if traced_values["plan_digest"] != values["plan_digest"]:
            bench.fail(1, "traced training chose different plans from untraced training")

    # One cold served pass from the saved doctor: loaded == trained.  (Only one:
    # after scaling, what is left of the spread is per run, not per request.)
    tape = Tape()
    sqls = [doctor.queries[i].sql for i in bench.rng.permutation(len(doctor.queries))]
    cold_pass(bench, doctor, tape, sqls, drive_sequential)
    tape.engine = engine  # the engine that trained, not the one that served

    values = finish(bench, values, tape)
    if bench.traced:  # the spans are the traced training's, not the cold pass's
        scaled_s, raw_s = traced_values["train_wall_s"], traced_values["train_raw_s"]
        values.update(
            layer_budget(bench.tracer.spans, raw_s, 1, settings.LAYERS, slowness=raw_s / scaled_s)
        )
        values["trace.overhead_x"] = scaled_s / values["train_wall_s"]
    return values


RUNNERS: Dict[str, Callable[[Bench], Dict[str, float]]] = {
    "job_cold": job_cold,
    "stack_cold": stack_cold,
    "stack_remote": stack_remote,
    "job_hot": job_hot,
    "job_train": job_train,
}
