"""Experiment harness: metrics, method drivers, and paper-style reports."""

from repro.experiments.metrics import geometric_mean_relevant_latency, workload_relevant_latency
from repro.experiments.harness import (
    EvaluationResult,
    MethodResult,
    evaluate_optimizer,
    known_best_analysis,
    optimization_times,
)
from repro.experiments import reporting

__all__ = [
    "geometric_mean_relevant_latency",
    "workload_relevant_latency",
    "EvaluationResult",
    "MethodResult",
    "evaluate_optimizer",
    "optimization_times",
    "known_best_analysis",
    "reporting",
]
