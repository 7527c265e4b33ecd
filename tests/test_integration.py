"""End-to-end integration tests across subsystems.

These exercise the full stack the way the benches do, at the smallest
budgets that still verify behaviour (not quality).
"""

import numpy as np
import pytest

from repro import FossConfig, build_workload_by_name
from repro.core import FossTrainer
from repro.baselines.bao import BaoOptimizer
from repro.baselines.postgres import PostgresOptimizer
from repro.core.aam import AAMConfig
from repro.core.icp import IncompletePlan
from repro.engine.backend import original_latency
from repro.engine.database import HARD_CAP_MS
from repro.experiments.harness import evaluate_optimizer
from repro.optimizer.plans import plan_signature


def tiny_config(**overrides) -> FossConfig:
    defaults = dict(
        max_steps=3,
        episodes_per_update=10,
        bootstrap_episodes=6,
        aam_retrain_threshold=40,
        random_sample_episodes=2,
        validation_budget=10,
        seed=3,
        aam=AAMConfig(d_model=32, d_embed=8, d_state=32, num_heads=2, num_layers=1, ff_hidden=32, epochs=1),
    )
    defaults.update(overrides)
    return FossConfig(**defaults)


class TestFossEndToEnd:
    def test_full_loop_on_job(self, job_workload):
        trainer = FossTrainer(job_workload, tiny_config())
        stats = trainer.train(iterations=1)
        assert len(stats) == 1
        optimizer = trainer.make_optimizer()
        evaluation = evaluate_optimizer(job_workload.database, job_workload.test[:6], optimizer)
        assert evaluation.gmrl > 0
        assert all(t >= 0 for t in evaluation.optimization_ms)

    def test_foss_never_returns_invalid_plan(self, job_workload):
        trainer = FossTrainer(job_workload, tiny_config())
        trainer.train(iterations=1)
        optimizer = trainer.make_optimizer()
        db = job_workload.database
        for wq in job_workload.test[:10]:
            chosen = optimizer.optimize(wq.query)
            icp = IncompletePlan(chosen.plan.aliases, chosen.plan.methods)
            assert sorted(icp.order) == sorted(wq.query.aliases)
            result = db.execute(wq.query, chosen.plan)
            assert np.isfinite(result.latency_ms)

    def test_foss_learns_repairable_queries(self, job_workload):
        """On queries with known 1-step repairs, a short training run must
        already find improvements (the validated learning behaviour)."""
        from repro.core.actions import ActionSpace

        db = job_workload.database
        space = ActionSpace(max_tables=job_workload.max_query_tables)
        repairable = []
        for wq in job_workload.train:
            original = db.plan(wq.query).plan
            expert_ms = db.execute(wq.query, original).latency_ms
            if expert_ms < 0.5:
                continue
            icp = IncompletePlan(original.aliases, original.methods)
            best = expert_ms
            for action_id in np.flatnonzero(space.legality_mask(icp)):
                candidate = space.apply(int(action_id), icp)
                plan = db.plan_with_hints(wq.query, candidate.order, candidate.methods).plan
                latency = db.execute(wq.query, plan, timeout_ms=expert_ms * 1.5).latency_ms
                best = min(best, latency)
            if best < expert_ms / 1.5:
                repairable.append(wq)
            if len(repairable) >= 6:
                break
        if len(repairable) < 3:
            pytest.skip("this seed/scale produced too few repairable queries")
        job_workload.train[:] = repairable  # focus training
        try:
            trainer = FossTrainer(
                job_workload,
                tiny_config(episodes_per_update=90, bootstrap_episodes=40, seed=11),
            )
            trainer.train(iterations=6)
            optimizer = trainer.make_optimizer()
            evaluation = evaluate_optimizer(db, repairable, optimizer)
            # At this budget full convergence is not guaranteed, but FOSS
            # must (a) never lose to the expert (original-plan assurance)
            # and (b) have *discovered* a better plan for at least one
            # repairable query during training (exploration + validation).
            assert evaluation.gmrl <= 1.0 + 1e-9
            discovered = 0
            for wq in repairable:
                expert_ms = original_latency(db, wq.query)
                records = trainer.buffer.records_for(wq.query)
                if any(
                    not r.timed_out and r.latency_ms < expert_ms * 0.95
                    for r in records
                ):
                    discovered += 1
            assert discovered >= 1, "training never found a repair"
        finally:
            # Restore the fixture's train split for other tests.
            rebuilt = build_workload_by_name("job", scale=0.03, seed=1)
            job_workload.train[:] = rebuilt.train

    def test_trainer_on_tpcds(self, tpcds_workload):
        trainer = FossTrainer(tpcds_workload, tiny_config())
        trainer.train(iterations=1)
        optimizer = trainer.make_optimizer()
        evaluation = evaluate_optimizer(tpcds_workload.database, tpcds_workload.test[:5], optimizer)
        # TPC-DS has little headroom and sub-millisecond latencies at this
        # toy scale, so ratios are noisy; assert structural sanity only.
        assert np.isfinite(evaluation.gmrl) and evaluation.gmrl > 0
        assert all(np.isfinite(l) for l in evaluation.latencies_ms)

    def test_trainer_on_stack(self, stack_workload):
        trainer = FossTrainer(stack_workload, tiny_config())
        trainer.train(iterations=1)
        optimizer = trainer.make_optimizer()
        evaluation = evaluate_optimizer(stack_workload.database, stack_workload.test[:5], optimizer)
        assert evaluation.gmrl > 0


class TestCrossMethodComparison:
    def test_methods_agree_on_query_results(self, job_workload):
        """Every optimizer's plan must produce the same COUNT(*)."""
        db = job_workload.database
        wq = next(w for w in job_workload.all_queries if w.query.num_tables == 5)
        pg_plan = PostgresOptimizer(db).optimize(wq.query).plan
        bao_plan = BaoOptimizer(db).optimize(wq.query).plan
        trainer = FossTrainer(job_workload, tiny_config())
        trainer.bootstrap()
        foss_plan = trainer.make_optimizer().optimize(wq.query).plan
        counts = {
            db.executor.execute(wq.query, plan, timeout_ms=HARD_CAP_MS).output_rows
            for plan in (pg_plan, bao_plan, foss_plan)
        }
        assert len(counts) == 1

    def test_dynamic_timeout_protects_training(self, job_workload):
        """No single training execution may exceed ~1.5x its original plan."""
        trainer = FossTrainer(job_workload, tiny_config(seed=13))
        trainer.bootstrap()
        db = job_workload.database
        for query_sig, per_query in trainer.buffer._records.items():
            query = trainer.buffer._queries[query_sig]
            original = original_latency(db, query)
            for record in per_query.values():
                assert record.latency_ms <= original * 1.5 + 1e-6


class TestDeterminism:
    def test_same_seed_same_training(self, job_workload):
        results = []
        for _ in range(2):
            trainer = FossTrainer(job_workload, tiny_config(seed=21))
            trainer.bootstrap()
            episode = trainer.planners[0].run_episode(
                trainer.sim_env, job_workload.train[0].query, deterministic=True
            )
            results.append(plan_signature(episode.best_plan))
        assert results[0] == results[1]
