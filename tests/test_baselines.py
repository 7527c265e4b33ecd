"""Baseline optimizer tests (Bao, HybridQO, Balsa, Loger, PostgreSQL)."""

import numpy as np
import pytest

import reference_tape as tape
from repro.baselines.balsa import BalsaOptimizer
from repro.baselines.bao import DEFAULT_HINT_SETS, BaoOptimizer
from repro.baselines.hybridqo import HybridQOOptimizer
from repro.baselines.loger import LogerOptimizer
from repro.baselines.postgres import PostgresOptimizer
from repro.baselines.value_model import PlanFeaturizer, ValueModel
from repro.core.icp import IncompletePlan
from repro.optimizer.plans import plan_signature


@pytest.fixture(scope="module")
def env(request):
    workload = request.getfixturevalue("job_workload")
    return workload, workload.database


class TestValueModel:
    def test_featurizer_fixed_dim(self, env):
        workload, db = env
        featurizer = PlanFeaturizer(db.catalog)
        for wq in workload.all_queries[:5]:
            plan = db.plan(wq.query).plan
            features = featurizer.featurize(wq.query, plan)
            assert features.shape == (featurizer.dim,)
            assert np.isfinite(features).all()

    def test_learns_latency_ordering(self, env):
        workload, db = env
        featurizer = PlanFeaturizer(db.catalog)
        model = ValueModel(featurizer.dim, rng=np.random.default_rng(0))
        samples = []
        for wq in workload.train[:25]:
            plan = db.plan(wq.query).plan
            latency = db.execute(wq.query, plan).latency_ms
            features = featurizer.featurize(wq.query, plan)
            model.add_sample(features, latency)
            samples.append((features, latency))
        model.fit(epochs=60)
        # Predictions must correlate with targets (Spearman-ish sanity).
        predicted = np.array([model.predict(f) for f, _ in samples])
        actual = np.array([l for _, l in samples])
        rank_corr = np.corrcoef(np.argsort(np.argsort(predicted)), np.argsort(np.argsort(actual)))[0, 1]
        assert rank_corr > 0.3

    def test_untrained_flag(self):
        model = ValueModel(4)
        assert not model.trained
        model.add_sample(np.zeros(4), 5.0)
        model.fit(epochs=1)
        assert model.trained

    @pytest.mark.parametrize("batch", [1, 3, 16])
    def test_predictions_equal_the_taped_network_bitwise(self, batch):
        """``predict``/``predict_batch`` are the network's taped forward:
        the same bits."""
        rng = np.random.default_rng(batch)
        model = ValueModel(6, rng=np.random.default_rng(7))
        for i in range(40):
            model.add_sample(rng.normal(size=6), float(np.exp(rng.uniform(0.0, 6.0))))
        model.fit(epochs=3)
        features = rng.normal(0.0, 2.0, size=(batch, 6))
        batched = model.predict_batch(features)
        single = [model.predict(row) for row in features]
        L = tape.Leaves(model.network)
        log_latency = tape.sequential(L, model.network, tape.Tensor(features)).data.reshape(-1)
        assert np.array_equal(batched, np.expm1(np.clip(log_latency, 0.0, 30.0)))
        for row, value in zip(features, single):
            taped = tape.sequential(L, model.network, tape.Tensor(np.atleast_2d(row))).data.reshape(-1)
            assert value == float(np.expm1(np.clip(float(taped[0]), 0.0, 30.0)))


class TestPostgres:
    def test_returns_expert_plan(self, env):
        workload, db = env
        optimizer = PostgresOptimizer(db)
        wq = workload.all_queries[0]
        chosen = optimizer.optimize(wq.query)
        assert plan_signature(chosen.plan) == plan_signature(db.plan(wq.query).plan)


class TestBao:
    def test_candidates_respect_hint_sets(self, env):
        workload, db = env
        bao = BaoOptimizer(db)
        query = next(w.query for w in workload.all_queries if w.query.num_tables >= 4)
        plans = bao._candidates(query)
        assert len(plans) == len(DEFAULT_HINT_SETS)
        for plan, disabled in zip(plans, DEFAULT_HINT_SETS):
            used = set(plan.methods)
            assert not (used & disabled)

    def test_untrained_picks_expert_default(self, env):
        workload, db = env
        bao = BaoOptimizer(db)
        wq = workload.all_queries[0]
        chosen = bao.optimize(wq.query)
        assert plan_signature(chosen.plan) == plan_signature(db.plan(wq.query).plan)

    def test_training_enables_value_model(self, env):
        workload, db = env
        bao = BaoOptimizer(db, seed=1)
        bao.train(workload.train[:8], iterations=1, refit_epochs=5)
        assert bao.value_model.trained
        chosen = bao.optimize(workload.test[0].query)
        assert chosen.candidates_considered == len(DEFAULT_HINT_SETS)


class TestHybridQO:
    def test_prefixes_are_valid(self, env):
        workload, db = env
        hybrid = HybridQOOptimizer(db, mcts_budget=10)
        query = next(w.query for w in workload.all_queries if w.query.num_tables >= 4)
        prefixes = hybrid._search_prefixes(query)
        assert prefixes
        for prefix in prefixes:
            assert len(set(prefix)) == len(prefix)
            assert set(prefix) <= set(query.aliases)

    def test_optimize_returns_plan(self, env):
        workload, db = env
        hybrid = HybridQOOptimizer(db, mcts_budget=10)
        wq = workload.all_queries[1]
        chosen = hybrid.optimize(wq.query)
        assert chosen.candidates_considered >= 1
        result = db.execute(wq.query, chosen.plan)
        assert result.latency_ms > 0


class TestBalsa:
    def test_construct_covers_all_tables(self, env):
        workload, db = env
        balsa = BalsaOptimizer(db)
        query = next(w.query for w in workload.all_queries if w.query.num_tables >= 5)
        plan = balsa._construct(query)
        assert sorted(IncompletePlan(plan.aliases, plan.methods).order) == sorted(query.aliases)

    def test_bootstrap_uses_cost_model(self, env):
        workload, db = env
        balsa = BalsaOptimizer(db, seed=2)
        balsa.bootstrap_from_cost_model(workload.train[:5], samples_per_query=2)
        assert balsa.value_model.trained
        assert balsa.value_model.num_samples == 10

    def test_optimize_executes(self, env):
        workload, db = env
        balsa = BalsaOptimizer(db, seed=3)
        wq = workload.all_queries[2]
        chosen = balsa.optimize(wq.query)
        result = db.execute(wq.query, chosen.plan)
        assert result.output_rows >= 0


class TestLoger:
    def test_construct_covers_all_tables(self, env):
        workload, db = env
        loger = LogerOptimizer(db)
        query = next(w.query for w in workload.all_queries if w.query.num_tables >= 5)
        plan = loger._construct(query)
        assert sorted(IncompletePlan(plan.aliases, plan.methods).order) == sorted(query.aliases)

    def test_faster_optimization_than_bao(self, env):
        """Loger skips the expert DP, so its optimize() is cheaper (Fig. 6)."""
        workload, db = env
        loger = LogerOptimizer(db)
        bao = BaoOptimizer(db)
        query = next(w.query for w in workload.all_queries if w.query.num_tables >= 8)
        db.clear_caches()
        loger_ms = loger.optimize(query).optimization_ms
        db.clear_caches()
        bao_ms = bao.optimize(query).optimization_ms
        assert loger_ms < bao_ms

    def test_training_records_time(self, env):
        workload, db = env
        loger = LogerOptimizer(db, seed=4)
        loger.train(workload.train[:6], iterations=1)
        assert loger.value_model.num_samples == 6  # one executed latency per query
        assert loger.value_model.trained
