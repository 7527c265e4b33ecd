"""Planner (Algorithm 1), environments, buffer, and training-loop tests."""

import numpy as np
import pytest

from repro.core.aam import AAMConfig
from repro.core.buffer import ExecutionBuffer
from repro.core.icp import IncompletePlan
from repro.core.reward import AdvantageFunction
from repro.core.simenv import DYNAMIC_TIMEOUT_FACTOR, RealEnvironment
from repro.core.trainer import FossConfig, FossTrainer
from repro.optimizer.plans import plan_signature


def small_config(**overrides) -> FossConfig:
    defaults = dict(
        max_steps=3,
        episodes_per_update=12,
        bootstrap_episodes=8,
        aam_retrain_threshold=30,
        random_sample_episodes=2,
        validation_budget=10,
        seed=5,
        aam=AAMConfig(d_model=32, d_embed=8, d_state=32, num_heads=2, num_layers=1, ff_hidden=32, epochs=1),
    )
    defaults.update(overrides)
    return FossConfig(**defaults)


@pytest.fixture(scope="module")
def trained(request):
    """A minimally-trained FossTrainer shared by read-only tests."""
    workload = request.getfixturevalue("job_workload")
    trainer = FossTrainer(workload, small_config())
    trainer.bootstrap()
    trainer.run_iteration(0)
    return workload, trainer


class TestExecutionBuffer:
    def test_add_and_dedup(self, trained):
        workload, trainer = trained
        query = workload.train[0].query
        plan = workload.database.plan(query).plan
        buffer = ExecutionBuffer()
        assert buffer.add(query, plan, 0, 10.0, False)
        assert not buffer.add(query, plan, 1, 12.0, False)
        assert buffer.num_records() == 1

    def test_reference_set_uses_better_plans(self, trained):
        workload, _ = trained
        query = workload.train[0].query
        db = workload.database
        plan = db.plan(query).plan
        buffer = ExecutionBuffer()
        buffer.add(query, plan, 0, 100.0, False)
        refs = buffer.reference_set(query, original_latency=100.0)
        assert refs.bounties == (0.0, 0.0, 0.0)

    def test_make_samples_filters_double_timeouts(self, trained):
        workload, trainer = trained
        db = workload.database
        query = workload.train[0].query
        original = db.plan(query).plan
        icp = IncompletePlan(original.aliases, original.methods)
        alt_icp = icp.override(1, "merge" if icp.methods[0] != "merge" else "nestloop")
        alt = db.plan_with_hints(query, alt_icp.order, alt_icp.methods).plan
        buffer = ExecutionBuffer()
        buffer.add(query, original, 0, 50.0, True)
        buffer.add(query, alt, 1, 60.0, True)
        samples = buffer.make_aam_samples(
            trainer.encoder, AdvantageFunction(), max_steps=3, rng=np.random.default_rng(0)
        )
        assert samples == []

    def test_samples_emitted_in_both_directions(self, trained):
        workload, trainer = trained
        db = workload.database
        query = workload.train[0].query
        original = db.plan(query).plan
        icp = IncompletePlan(original.aliases, original.methods)
        alt_icp = icp.override(1, "merge" if icp.methods[0] != "merge" else "nestloop")
        alt = db.plan_with_hints(query, alt_icp.order, alt_icp.methods).plan
        buffer = ExecutionBuffer()
        buffer.add(query, original, 0, 50.0, False)
        buffer.add(query, alt, 1, 20.0, False)
        samples = buffer.make_aam_samples(
            trainer.encoder, AdvantageFunction(), max_steps=3, rng=np.random.default_rng(0)
        )
        assert len(samples) == 2
        assert {s.label for s in samples} == {0, 2}  # 60% saving one way, worse the other


class TestRealEnvironment:
    def test_begin_episode_executes_original(self, trained):
        workload, trainer = trained
        buffer = ExecutionBuffer()
        env = RealEnvironment(workload.database, buffer)
        [ctx] = env.begin_episode_many([workload.train[1].query])
        assert ctx.original_latency > 0
        assert ctx.timeout_ms == pytest.approx(ctx.original_latency * DYNAMIC_TIMEOUT_FACTOR)
        assert buffer.num_records() == 1

    def test_advantage_scores_latencies(self, trained):
        workload, trainer = trained
        db = workload.database
        buffer = ExecutionBuffer()
        env = RealEnvironment(db, buffer)
        query = workload.train[1].query
        [ctx] = env.begin_episode_many([query])
        [score] = env.advantage_many([(ctx, ctx.original_plan, 0, ctx.original_plan, 1)])
        assert score == 0  # identical plans: no advantage


class TestPlannerEpisodes:
    def test_episode_structure(self, trained):
        workload, trainer = trained
        planner = trainer.planners[0]
        query = next(w.query for w in workload.train if w.query.num_tables >= 3)
        episode = planner.run_episode(trainer.sim_env, query)
        assert len(episode.transitions) == trainer.config.max_steps
        assert episode.transitions[-1].done
        assert not episode.transitions[0].done
        assert episode.candidates[0].step == 0

    def test_candidates_are_valid_plans(self, trained):
        workload, trainer = trained
        planner = trainer.planners[0]
        query = next(w.query for w in workload.train if w.query.num_tables >= 4)
        episode = planner.run_episode(trainer.sim_env, query)
        for candidate in episode.candidates:
            assert sorted(candidate.icp.order) == sorted(query.aliases)

    def test_deterministic_episode_repeatable(self, trained):
        workload, trainer = trained
        planner = trainer.planners[0]
        query = next(w.query for w in workload.train if w.query.num_tables >= 3)
        a = planner.run_episode(trainer.sim_env, query, deterministic=True)
        b = planner.run_episode(trainer.sim_env, query, deterministic=True)
        assert plan_signature(a.best_plan) == plan_signature(b.best_plan)

    def test_ppo_refuses_greedy_episodes(self, trained):
        """A greedy step computes no value or log-prob, so PPO cannot learn
        from its transitions: the update raises instead of guessing."""
        workload, trainer = trained
        planner = trainer.planners[0]
        query = next(w.query for w in workload.train if w.query.num_tables >= 3)
        episode = planner.run_episode(trainer.sim_env, query, deterministic=True)
        assert episode.transitions
        assert all(t.value is None and t.log_prob is None for t in episode.transitions)
        with pytest.raises(ValueError, match="greedy"):
            planner.update_from_episodes([episode])

    def test_statevec_cache_invalidation(self, trained):
        workload, trainer = trained
        planner = trainer.planners[0]
        query = workload.train[0].query
        plan = workload.database.plan(query).plan
        planner.statevec_many([(query, plan, 0)])
        assert len(trainer.aam._statevec_cache) > 0
        version = trainer.aam.version
        trainer.aam._bump_version()
        assert trainer.aam.version == version + 1
        assert len(trainer.aam._statevec_cache) == 0

    def test_penalty_off_config(self, job_workload):
        config = small_config(use_penalty=False)
        assert config.planner.reward.penalty_gamma == 0.0


class TestTrainingLoop:
    def test_bootstrap_fills_buffer_and_trains_aam(self, trained):
        _, trainer = trained
        assert trainer.buffer.num_records() > 0
        assert trainer.aam_accuracy > 0.0

    def test_iteration_produces_episodes(self, trained):
        _, trainer = trained
        stats = trainer.history[0]
        assert stats.episodes == trainer.config.episodes_per_update

    def test_multi_agent_configs_differ(self, job_workload):
        trainer = FossTrainer(job_workload, small_config(num_agents=2))
        assert len(trainer.planners) == 2
        lr0 = trainer.planners[0].config.ppo.lr
        lr1 = trainer.planners[1].config.ppo.lr
        assert lr0 != lr1

    def test_off_simulated_uses_real_env(self, job_workload):
        trainer = FossTrainer(job_workload, small_config(use_simulated=False, episodes_per_update=4))
        trainer.bootstrap()
        before = trainer.buffer.total_added
        trainer.run_iteration(0)
        # Real-env episodes execute plans, so the buffer must grow.
        assert trainer.buffer.total_added > before

    def test_validation_queue_drained(self, trained):
        _, trainer = trained
        # After an iteration the queue was drained into the budgeted runs.
        assert len(trainer.sim_env.validation_queue) == 0

    def test_make_optimizer_roundtrip(self, trained):
        workload, trainer = trained
        optimizer = trainer.make_optimizer()
        wq = workload.test[0]
        result = optimizer.optimize(wq.query)
        assert result.optimization_ms >= 0
        assert sorted(IncompletePlan(result.plan.aliases, result.plan.methods).order) == sorted(wq.query.aliases)

    def test_optimizer_plan_executes(self, trained):
        workload, trainer = trained
        optimizer = trainer.make_optimizer()
        wq = workload.test[1]
        plan = optimizer.optimize(wq.query).plan
        result = workload.database.execute(wq.query, plan)
        assert result.latency_ms > 0
