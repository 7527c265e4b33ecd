"""Fig. 9: GMRL trajectories over training for the ablation configurations.

Expected shape: the default (3-Maxsteps) curve descends fastest;
Off-Validation descends slowly (AAM errors accumulate uncorrected).
"""

import time
from typing import List

import pytest

from repro.core.trainer import FossTrainer
from repro.experiments.harness import TrainingCurve, evaluate_optimizer
from repro.experiments.reporting import render_training_curves

from conftest import BENCH_ITERS, small_foss_config

CONFIGS = (
    ("3-Maxsteps", {}),
    ("Off-Penalty", {"use_penalty": False}),
    ("Off-Validation", {"use_validation": False}),
    ("2-Agents", {"num_agents": 2}),
)


@pytest.mark.benchmark(group="fig9")
def test_fig9_ablation_curves(registry, benchmark, capsys):
    workload = registry.workloads["job"]
    sample = workload.train[:16]
    curves: List[TrainingCurve] = []
    trainers = {}
    for index, (label, overrides) in enumerate(CONFIGS):
        trainer = FossTrainer(workload, small_foss_config(seed=200 + index, **overrides))
        trainer.bootstrap()
        optimizer = trainer.make_optimizer()
        curve = TrainingCurve(label, "job")
        start = time.perf_counter()
        for i in range(max(2, BENCH_ITERS // 2)):
            trainer.run_iteration(i)
            evaluation = evaluate_optimizer(workload.database, sample, optimizer)
            speedup = evaluation.expert_total_runtime_s / max(evaluation.total_runtime_s, 1e-9)
            curve.record(time.perf_counter() - start, speedup, evaluation.gmrl)
        curves.append(curve)
        trainers[label] = trainer

    trainer = trainers["3-Maxsteps"]
    benchmark(lambda: trainer.planners[0].run_episode(trainer.sim_env, workload.train[0].query))

    with capsys.disabled():
        print("\n=== Fig. 9: GMRL variation during training per configuration ===")
        print(render_training_curves(curves, value="gmrl"))

    for curve in curves:
        assert len(curve.gmrls) >= 2
        assert all(g > 0 for g in curve.gmrls)
