"""Batched episode pipeline: parity, cache invalidation, config hygiene.

The contract under test (see :mod:`repro.core.batching`): for a fixed seed,
the lockstep batched runner produces *identical* episodes for every
``episode_batch_size``, because each episode owns a child generator drawn in
episode order and every AAM/statevec quantity is a deterministic function of
the model weights.  A cohort is inference: it builds no autograd tape.
"""

import pytest

from repro.core.aam import AAMConfig
from repro.core.batching import BatchedEpisodeRunner
from repro.core.icp import IncompletePlan
from repro.core.persistence import read_checkpoint, restore_checkpoint, save_checkpoint
from repro.core.planner import PlannerConfig
from repro.core.simenv import RealEnvironment
from repro.core.trainer import FossConfig, FossTrainer
from repro.optimizer.plans import plan_signature


def batching_config(**overrides) -> FossConfig:
    defaults = dict(
        max_steps=3,
        episodes_per_update=12,
        bootstrap_episodes=8,
        aam_retrain_threshold=30,
        random_sample_episodes=2,
        validation_budget=10,
        seed=17,
        aam=AAMConfig(d_model=32, d_embed=8, d_state=32, num_heads=2, num_layers=1, ff_hidden=32, epochs=1),
    )
    defaults.update(overrides)
    return FossConfig(**defaults)


def episode_fingerprint(episode):
    return (
        plan_signature(episode.best_plan),
        episode.best_step,
        [c.icp.signature() for c in episode.candidates],
        [t.action for t in episode.transitions],
        [t.reward for t in episode.transitions],
        episode.total_reward,
    )


class TestBatchParity:
    @pytest.fixture(scope="class")
    def parity_queries(self, job_workload):
        queries = []
        seen = set()
        for wq in job_workload.train:
            if wq.query.num_tables >= 3 and wq.query.signature() not in seen:
                seen.add(wq.query.signature())
                queries.append(wq.query)
            if len(queries) == 9:
                break
        assert len(queries) == 9
        return queries

    def _run(self, job_workload, queries, batch_size):
        trainer = FossTrainer(job_workload, batching_config(episode_batch_size=batch_size))
        return trainer.runners[0].run(trainer.sim_env, queries)

    def test_batched_matches_sequential_simulated(self, job_workload, parity_queries):
        """episode_batch_size=1 and >1 yield identical plans and rewards."""
        sequential = self._run(job_workload, parity_queries, batch_size=1)
        for batch_size in (4, 9):
            batched = self._run(job_workload, parity_queries, batch_size=batch_size)
            assert [episode_fingerprint(e) for e in batched] == [
                episode_fingerprint(e) for e in sequential
            ], f"batch_size={batch_size} diverged from sequential"

    def test_runner_batch_one_matches_run_episode_loop(self, job_workload, parity_queries):
        """The sequential Planner.run_episode loop is the batch_size=1 path."""
        trainer_a = FossTrainer(job_workload, batching_config())
        loop = [
            trainer_a.planners[0].run_episode(trainer_a.sim_env, query)
            for query in parity_queries
        ]
        trainer_b = FossTrainer(job_workload, batching_config())
        runner = BatchedEpisodeRunner(trainer_b.planners[0], batch_size=1)
        batched = runner.run(trainer_b.sim_env, parity_queries)
        assert [episode_fingerprint(e) for e in loop] == [
            episode_fingerprint(e) for e in batched
        ]

    def test_deterministic_episodes_batch_invariant(self, job_workload, parity_queries):
        """Inference-mode (deterministic) episodes are batch-invariant too."""
        runs = []
        for batch_size in (1, 5):
            trainer = FossTrainer(job_workload, batching_config(episode_batch_size=batch_size))
            runs.append(
                trainer.runners[0].run(trainer.sim_env, parity_queries, deterministic=True)
            )
        assert [episode_fingerprint(e) for e in runs[0]] == [
            episode_fingerprint(e) for e in runs[1]
        ]

    def test_cohort_builds_no_tape_and_the_update_does(self, job_workload, parity_queries, monkeypatch):
        """A sampled cohort (policy steps, AAM forwards, plan encoding) drops
        every pullback: no backward body runs.  The PPO update over its
        episodes runs them, so the count is live."""
        from repro.nn import layers

        backward, calls = layers.linear_backward, []

        def counted(*args):
            calls.append(args[0].shape)
            return backward(*args)

        monkeypatch.setattr(layers, "linear_backward", counted)
        trainer = FossTrainer(job_workload, batching_config(episode_batch_size=9))
        episodes = trainer.runners[0].run(trainer.sim_env, parity_queries)
        assert len(episodes) == len(parity_queries)
        assert calls == []
        trainer.planners[0].update_from_episodes(episodes)
        assert len(calls) > 0


class TestScoreCacheInvalidation:
    def test_bump_aam_version_invalidates_batched_cache(self, job_workload):
        trainer = FossTrainer(job_workload, batching_config())
        env = trainer.sim_env
        query = next(w.query for w in job_workload.train if w.query.num_tables >= 3)
        [ctx] = env.begin_episode_many([query])
        icp = ctx.original_icp
        alt_icp = icp.override(1, "merge" if icp.methods[0] != "merge" else "nestloop")
        alt = trainer.database.plan_with_hints(query, alt_icp.order, alt_icp.methods).plan

        scorer = env.scorer
        env.advantage_many(
            [(ctx, ctx.original_plan, 0, alt, 1), (ctx, alt, 1, ctx.original_plan, 0)]
        )
        assert len(scorer._cache) == 2
        old_version = trainer.aam.version

        trainer.aam._bump_version()
        assert len(trainer.aam._statevec_cache) == 0, "a bump must drop stale statevecs"
        env.advantage_many([(ctx, ctx.original_plan, 0, alt, 1)])
        # Scores cached under the old weights are gone, not merely shadowed.
        assert scorer.version == old_version + 1
        assert len(scorer._cache) == 1

    def test_batched_scores_match_singleton_scores(self, job_workload):
        trainer = FossTrainer(job_workload, batching_config())
        env = trainer.sim_env
        query = next(w.query for w in job_workload.train if w.query.num_tables >= 4)
        [ctx] = env.begin_episode_many([query])
        icp = ctx.original_icp
        variants = [ctx.original_plan]
        for join_pos in (1, 2):
            for method in ("hash", "merge", "nestloop"):
                if icp.methods[join_pos - 1] == method:
                    continue
                edited = icp.override(join_pos, method)
                variants.append(
                    trainer.database.plan_with_hints(query, edited.order, edited.methods).plan
                )
        requests = [(ctx, ctx.original_plan, 0, plan, 1) for plan in variants]
        batched = env.advantage_many(requests)
        trainer.aam._bump_version()  # drop every cache so singles recompute
        singles = [env.advantage_many([request])[0] for request in requests]
        assert batched == singles

    def test_training_and_serving_scorers_agree(self, job_workload):
        """The simulated environment and the optimizer judge alike."""
        trainer = FossTrainer(job_workload, batching_config())
        trainer.bootstrap()
        optimizer = trainer.make_optimizer()
        assert trainer.sim_env.scorer is not optimizer._scorer
        requests = []
        for wq in job_workload.test[:4]:
            [ctx] = trainer.sim_env.begin_episode_many([wq.query])
            icp = ctx.original_icp
            for join_pos in range(1, icp.num_tables):
                for method in ("hash", "merge", "nestloop"):
                    if icp.methods[join_pos - 1] == method:
                        continue
                    edited = icp.override(join_pos, method)
                    plan = trainer.database.plan_with_hints(
                        wq.query, edited.order, edited.methods
                    ).plan
                    requests.append((ctx, ctx.original_plan, 0, plan, 1))
                    requests.append((ctx, plan, 1, ctx.original_plan, 0))
        assert requests
        simulated = trainer.sim_env.advantage_many(requests)
        assert optimizer._environment.advantage_many(requests) == simulated


class TestConfigHygiene:
    def test_post_init_does_not_mutate_shared_planner_config(self):
        shared = PlannerConfig(max_steps=3)
        FossConfig(max_steps=5, planner=shared)
        assert shared.max_steps == 3, "FossConfig must not mutate the caller's PlannerConfig"
        FossConfig(max_steps=7, planner=shared, use_penalty=False)
        assert shared.max_steps == 3
        assert shared.reward.penalty_gamma != 0.0

    def test_penalty_off_still_derives_zero_gamma(self):
        config = FossConfig(use_penalty=False)
        assert config.planner.reward.penalty_gamma == 0.0

    def test_episode_batch_size_validated(self):
        with pytest.raises(ValueError):
            FossConfig(episode_batch_size=0)


class TestRealEnvironmentMemoization:
    def test_advantage_records_and_memoizes(self, job_workload):
        from repro.core.buffer import ExecutionBuffer

        db = job_workload.database
        buffer = ExecutionBuffer()
        env = RealEnvironment(db, buffer)
        query = next(w.query for w in job_workload.train if w.query.num_tables >= 3)
        [ctx] = env.begin_episode_many([query])
        icp = ctx.original_icp
        alt_icp = icp.override(1, "merge" if icp.methods[0] != "merge" else "nestloop")
        alt = db.plan_with_hints(query, alt_icp.order, alt_icp.methods).plan

        [first] = env.advantage_many([(ctx, ctx.original_plan, 0, alt, 1)])
        # The executed comparison plan is recorded into the buffer...
        assert buffer.latency_of(query, alt) is not None
        # ...and repeat queries are served from it, not re-executed.
        executions_before = db.executions
        [second] = env.advantage_many([(ctx, ctx.original_plan, 0, alt, 1)])
        assert db.executions == executions_before
        assert first == second

    def test_episode_bounty_memoizes_final_plan(self, job_workload):
        from repro.core.buffer import ExecutionBuffer

        db = job_workload.database
        buffer = ExecutionBuffer()
        env = RealEnvironment(db, buffer)
        query = next(w.query for w in job_workload.train if w.query.num_tables >= 3)
        [ctx] = env.begin_episode_many([query])
        env.episode_bounty_many([(ctx, ctx.original_plan, 0)])
        executions_before = db.executions
        env.episode_bounty_many([(ctx, ctx.original_plan, 0)])
        assert db.executions == executions_before

    def test_repeated_query_bounties_match_singleton_batches(self, job_workload):
        """One bounty batch that repeats a query, its final plans not yet
        executed, scores as item-by-item singleton batches do: each item's
        reference set already holds the earlier items' executions."""
        from repro.core.buffer import ExecutionBuffer

        db = job_workload.database
        query = next(w.query for w in job_workload.train if w.query.num_tables >= 4)
        original = db.plan(query).plan
        icp = IncompletePlan(original.aliases, original.methods)
        finals = []
        for join_pos in range(1, icp.num_tables):
            for method in ("hash", "merge", "nestloop"):
                if icp.methods[join_pos - 1] != method:
                    edited = icp.override(join_pos, method)
                    finals.append(db.plan_with_hints(query, edited.order, edited.methods).plan)
        assert len({plan_signature(plan) for plan in finals}) >= 3

        def bounties(batches):
            buffer = ExecutionBuffer()
            env = RealEnvironment(db, buffer)
            [ctx] = env.begin_episode_many([query])
            items = [(ctx, plan, step) for step, plan in enumerate(finals, start=1)]
            assert all(buffer.latency_of(query, plan) is None for _, plan, _ in items)
            out = [bounty for batch in batches(items) for bounty in env.episode_bounty_many(batch)]
            return out, [(plan_signature(r.plan), r.latency_ms) for r in buffer.records_for(query)]

        batched = bounties(lambda items: [items])
        singletons = bounties(lambda items: [[item] for item in items])
        assert batched == singletons
        # The finals do not all score alike, so read-before-execute order shows.
        assert len(set(batched[0])) > 1


class TestBatchedInference:
    def test_optimize_many_matches_optimize(self, job_workload):
        trainer = FossTrainer(job_workload, batching_config(num_agents=2))
        trainer.bootstrap()
        optimizer = trainer.make_optimizer()
        queries = [wq.query for wq in job_workload.test[:6]]
        batched = optimizer.optimize_many(queries)
        for query, batch_result in zip(queries, batched):
            single = optimizer.optimize(query)
            assert plan_signature(single.plan) == plan_signature(batch_result.plan)
            assert single.chosen_step == batch_result.chosen_step
        assert all(
            sorted(IncompletePlan(r.plan.aliases, r.plan.methods).order) == sorted(q.aliases)
            for q, r in zip(queries, batched)
        )

    def test_loaded_checkpoint_serves_its_own_weights(self, job_workload, tmp_path):
        """Loading a checkpoint into a trainer that has served drops every
        cache built under its old weights: it serves what a fresh trainer
        loaded from the same checkpoint serves."""
        checkpoint = str(tmp_path / "ckpt")
        trainer = FossTrainer(job_workload, batching_config())
        trainer.bootstrap()
        save_checkpoint(trainer, checkpoint)
        for _ in range(2):
            trainer.train_aam()
        optimizer = trainer.make_optimizer()
        queries = [wq.query for wq in job_workload.test]
        optimizer.optimize_many(queries)
        version = trainer.aam.version
        restore_checkpoint(trainer, read_checkpoint(checkpoint))
        assert trainer.aam.version > version
        fresh = FossTrainer(job_workload, batching_config())
        restore_checkpoint(fresh, read_checkpoint(checkpoint))

        def served(opt):
            return [
                (plan_signature(p.plan), p.chosen_step) for p in opt.optimize_many(queries)
            ]

        assert served(optimizer) == served(fresh.make_optimizer())

    def test_inference_cache_tracks_aam_version(self, job_workload):
        trainer = FossTrainer(job_workload, batching_config())
        trainer.bootstrap()
        optimizer = trainer.make_optimizer()
        query = job_workload.test[0].query
        optimizer.optimize(query)
        scorer = optimizer._scorer
        assert scorer._cache
        version_before = trainer.aam.version
        trainer.train_aam()
        assert trainer.aam.version == version_before + 1
        optimizer.optimize(query)
        # Entries from the stale version must not answer post-retrain queries.
        assert scorer.version == trainer.aam.version
        assert scorer._cache
