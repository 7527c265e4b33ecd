"""Metrics, harness, and reporting tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.postgres import PostgresOptimizer
from repro.engine.backend import original_latency
from repro.experiments.harness import (
    EvaluationResult,
    KnownBestResult,
    MethodResult,
    TrainingCurve,
    evaluate_optimizer,
    known_best_analysis,
    optimization_times,
)
from repro.experiments.metrics import (
    geometric_mean_relevant_latency,
    workload_relevant_latency,
)
from repro.experiments import reporting


class TestMetrics:
    def test_gmrl_identity(self):
        assert geometric_mean_relevant_latency([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_gmrl_halved_latency(self):
        assert geometric_mean_relevant_latency([1, 1], [2, 2]) == pytest.approx(0.5)

    def test_gmrl_geometric_not_arithmetic(self):
        # One 4x win and one 4x loss cancel geometrically.
        assert geometric_mean_relevant_latency([1, 4], [4, 1]) == pytest.approx(1.0)

    def test_gmrl_floor_guards_zero(self):
        value = geometric_mean_relevant_latency([0.0], [1.0])
        assert np.isfinite(value) and value > 0

    def test_wrl_includes_optimization_time(self):
        wrl = workload_relevant_latency([10], [10], [10], [0])
        assert wrl == pytest.approx(2.0)

    def test_wrl_total_latency_dominated_by_heavy_query(self):
        wrl = workload_relevant_latency([1, 100], [1, 1000], [0, 0], [0, 0])
        assert wrl == pytest.approx(101 / 1001)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            geometric_mean_relevant_latency([1], [1, 2])
        with pytest.raises(ValueError):
            workload_relevant_latency([1], [1], [1], [])


@settings(max_examples=40, deadline=None)
@given(
    latencies=st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=1, max_size=20),
    factor=st.floats(min_value=0.1, max_value=10.0),
)
def test_gmrl_scaling_property(latencies, factor):
    """Scaling every learned latency by f scales GMRL by exactly f."""
    scaled = [l * factor for l in latencies]
    gmrl = geometric_mean_relevant_latency(scaled, latencies)
    assert gmrl == pytest.approx(factor, rel=1e-6)


class TestHarness:
    def test_evaluate_postgres_is_unity(self, job_workload):
        db = job_workload.database
        result = evaluate_optimizer(db, job_workload.test[:5], PostgresOptimizer(db))
        assert result.gmrl == pytest.approx(1.0)
        np.testing.assert_allclose(result.latencies_ms, result.expert_latencies_ms)

    def test_optimization_times_shape(self, job_workload):
        db = job_workload.database
        times = optimization_times(db, job_workload.test[:5], PostgresOptimizer(db))
        assert times.shape == (5,)
        assert (times >= 0).all()

    def test_known_best_ranks_descending(self, job_workload):
        db = job_workload.database
        queries = job_workload.test[:5]
        best = {wq.query_id: original_latency(db, wq.query) * 0.5 for wq in queries}
        result = known_best_analysis(db, queries, "stub", best)
        assert (np.diff(result.savings_ratios) <= 1e-12).all()
        assert result.queries_saving_at_least(0.25) == 5

    def test_known_best_never_negative(self, job_workload):
        db = job_workload.database
        queries = job_workload.test[:3]
        worse = {wq.query_id: original_latency(db, wq.query) * 2.0 for wq in queries}
        result = known_best_analysis(db, queries, "stub", worse)
        assert (result.savings_ratios >= 0).all()


class TestReporting:
    def _fake_eval(self, wrl, gmrl):
        return EvaluationResult(
            query_ids=["q1"], latencies_ms=[wrl * 100], optimization_ms=[1],
            expert_latencies_ms=[100], expert_optimization_ms=[1],
            wrl=wrl, gmrl=gmrl,
        )

    def _results(self):
        return [
            MethodResult("FOSS", "job", self._fake_eval(0.2, 0.5), self._fake_eval(0.3, 0.6)),
            MethodResult("Bao", "job", self._fake_eval(0.4, 0.7), self._fake_eval(0.5, 0.8)),
            MethodResult("Balsa", "stack", self._fake_eval(1.0, 1.0), self._fake_eval(1.0, 1.0), timed_out=True),
        ]

    def test_table1_includes_tle(self):
        text = reporting.render_table1(self._results(), ["job", "stack"])
        assert "TLE" in text
        assert "FOSS" in text

    def test_relative_speedup_excludes_baseline(self):
        text = reporting.render_relative_speedup(self._results())
        assert "FOSS" in text.splitlines()[0]
        assert "Bao" in text

    def test_box_stats(self):
        text = reporting.render_box_stats({"FOSS": np.array([1.0, 2.0, 3.0, 4.0])})
        assert "p50" in text and "FOSS" in text

    def test_known_best_rendering(self):
        result = KnownBestResult("FOSS", ["a", "b"], np.array([0.9, 0.1]))
        text = reporting.render_known_best([result])
        assert ">=25% saved" in text

    def test_steps_distribution(self):
        text = reporting.render_steps_distribution({3: {0: 5, 1: 3, 2: 1, 3: 1}})
        assert "step0" in text

    def test_training_curves(self):
        curve = TrainingCurve("FOSS", "job")
        curve.record(10.0, 1.5, 0.8)
        text = reporting.render_training_curves([curve])
        assert "FOSS" in text

    def test_ablation_table(self):
        rows = [{"experiment": "3-Maxsteps", "training_time_s": 9.0, "optimization_ms": 200.0, "gmrl": 0.43}]
        text = reporting.render_ablation_table(rows)
        assert "3-Maxsteps" in text
