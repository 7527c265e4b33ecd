"""Shared benchmark fixtures.

Every paper table/figure has one bench module.  Training the five learned
methods on three workloads at paper scale takes GPU-days; the benches
reproduce the *shape* at laptop scale: small data (``REPRO_BENCH_SCALE``,
default 0.04) and short training budgets (``REPRO_BENCH_ITERS``, default 4).
Raise both via environment variables for closer-to-paper runs.

Results are cached per session so Table I, Fig. 4 and Fig. 5 share one
training run per method.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import numpy as np
import pytest

from repro.api import FossSession, create_optimizer
from repro.core.trainer import FossConfig, FossTrainer
from repro.experiments.harness import MethodResult, TrainingCurve, evaluate_optimizer
from repro.workloads.base import Workload, build_workload_by_name

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.04"))
BENCH_ITERS = int(os.environ.get("REPRO_BENCH_ITERS", "4"))
BENCH_EPISODES = int(os.environ.get("REPRO_BENCH_EPISODES", "90"))
BASELINE_ITERS = max(1, BENCH_ITERS // 3)

# Balsa's wall-clock training budget per workload; exceeding it marks TLE
# (the paper reports TLE for Balsa on Stack).
BALSA_BUDGET_S = 120.0


def small_foss_config(**overrides) -> FossConfig:
    defaults = dict(
        max_steps=3,
        episodes_per_update=BENCH_EPISODES,
        bootstrap_episodes=max(30, BENCH_EPISODES // 3),
        aam_retrain_threshold=80,
        random_sample_episodes=8,
        validation_budget=120,
        seed=7,
    )
    defaults.update(overrides)
    return FossConfig(**defaults)


@pytest.fixture(scope="session")
def workloads() -> Dict[str, Workload]:
    return {
        "job": build_workload_by_name("job", scale=BENCH_SCALE, seed=1),
        "tpcds": build_workload_by_name("tpcds", scale=BENCH_SCALE, seed=2),
        "stack": build_workload_by_name("stack", scale=BENCH_SCALE, seed=3),
    }


@pytest.fixture(scope="session")
def job_workload_bench(workloads) -> Workload:
    return workloads["job"]


class MethodRegistry:
    """Trains each method once per workload and caches everything.

    Optimizers are constructed by name through the :mod:`repro.api`
    registry over one :class:`FossSession` per workload.
    """

    def __init__(self, workloads: Dict[str, Workload]) -> None:
        self.workloads = workloads
        self._sessions: Dict[str, FossSession] = {}
        self._optimizers: Dict[tuple, object] = {}
        self._results: Dict[tuple, MethodResult] = {}
        self._training_times: Dict[tuple, float] = {}
        self._curves: Dict[tuple, TrainingCurve] = {}

    # ------------------------------------------------------------------
    def session(self, workload_name: str) -> FossSession:
        if workload_name not in self._sessions:
            self._sessions[workload_name] = FossSession.open(
                workload=self.workloads[workload_name], config=small_foss_config()
            )
        return self._sessions[workload_name]

    def optimizer(self, method: str, workload_name: str):
        key = (method, workload_name)
        if key not in self._optimizers:
            self._optimizers[key] = self._train(method, workload_name)
        return self._optimizers[key]

    def foss_trainer(self, workload_name: str) -> FossTrainer:
        self.optimizer("FOSS", workload_name)
        return self.session(workload_name).trainer()

    def _train(self, method: str, workload_name: str):
        workload = self.workloads[workload_name]
        session = self.session(workload_name)
        start = time.perf_counter()
        curve = TrainingCurve(method, workload_name)
        optimizer = create_optimizer(method, session)  # raises on unknown names
        name = method.lower()  # training dispatch is case-insensitive, like the registry
        if name in ("bao", "hybridqo", "loger"):
            optimizer.train(workload.train, iterations=BASELINE_ITERS)
        elif name == "balsa":
            for _ in range(BASELINE_ITERS):
                optimizer.train(workload.train, iterations=1)
                curve.record(
                    time.perf_counter() - start,
                    *self._quick_scores(workload, optimizer),
                )
                if time.perf_counter() - start > BALSA_BUDGET_S:
                    self._training_times[(method, workload_name)] = time.perf_counter() - start
                    self._curves[(method, workload_name)] = curve
                    return _TimedOut(optimizer)
        elif name == "foss":
            trainer = session.trainer()
            trainer.bootstrap()
            for i in range(BENCH_ITERS):
                trainer.run_iteration(i)
                curve.record(
                    time.perf_counter() - start,
                    *self._quick_scores(workload, optimizer),
                )
        self._training_times[(method, workload_name)] = time.perf_counter() - start
        self._curves[(method, workload_name)] = curve
        return optimizer

    def _quick_scores(self, workload: Workload, optimizer) -> tuple:
        """(speedup, gmrl) on a small test slice for training curves."""
        sample = workload.test[: min(8, len(workload.test))]
        evaluation = evaluate_optimizer(workload.database, sample, optimizer)
        speedup = evaluation.expert_total_runtime_s / max(evaluation.total_runtime_s, 1e-9)
        return speedup, evaluation.gmrl

    # ------------------------------------------------------------------
    def result(self, method: str, workload_name: str) -> MethodResult:
        key = (method, workload_name)
        if key not in self._results:
            workload = self.workloads[workload_name]
            optimizer = self.optimizer(method, workload_name)
            timed_out = isinstance(optimizer, _TimedOut)
            inner = optimizer.inner if timed_out else optimizer
            train_eval = evaluate_optimizer(workload.database, workload.train, inner)
            test_eval = evaluate_optimizer(workload.database, workload.test, inner)
            self._results[key] = MethodResult(
                method=method,
                workload=workload_name,
                train=train_eval,
                test=test_eval,
                training_time_s=self._training_times.get(key, 0.0),
                timed_out=timed_out,
            )
        return self._results[key]

    def curve(self, method: str, workload_name: str) -> TrainingCurve:
        self.optimizer(method, workload_name)
        return self._curves[(method, workload_name)]


class _TimedOut:
    """Marker wrapper: training exceeded the budget (reported as TLE)."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def optimize(self, query):
        return self.inner.optimize(query)


@pytest.fixture(scope="session")
def registry(workloads) -> MethodRegistry:
    return MethodRegistry(workloads)
