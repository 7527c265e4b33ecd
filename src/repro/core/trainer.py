"""The FOSS training loop (paper Fig. 3 and §V-B).

One training iteration:

1. sample queries from the training workload and run planner episodes in
   the **simulated environment** (AAM rewards, no execution), collecting
   simulated experiences for a PPO update;
2. **validate promising plans**: plans the AAM scored above the original
   are executed in the real environment under the dynamic timeout and
   pushed into the execution buffer;
3. **random sampling**: a few queries are periodically explored in the real
   environment to diversify the buffer;
4. when enough new executions accumulated, the AAM is **retrained** from
   the buffer; its weight version moves, so no statevec or score cached
   under the old weights answers again.

Ablation switches reproduce Table II: ``use_simulated`` (Off-Simulated runs
every episode in the real environment), ``use_penalty`` (Off-Penalty),
``use_validation`` (Off-Validation), and ``num_agents`` (2-Agents).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro.core.aam import AAMConfig, AAMTrainer, AdvantageModel
from repro.core.actions import ActionSpace
from repro.core.batching import BatchedEpisodeRunner
from repro.core.buffer import ExecutionBuffer
from repro.core.encoding import PlanEncoder
from repro.core.planner import Episode, Planner, PlannerConfig
from repro.core.reward import AdvantageFunction
from repro.core.simenv import DYNAMIC_TIMEOUT_FACTOR, RealEnvironment, SimulatedEnvironment
from repro.engine.backend import EngineBackend
from repro.workloads.base import Workload, WorkloadQuery


@dataclass
class FossConfig:
    """End-to-end training configuration."""

    max_steps: int = 3
    episodes_per_update: int = 900
    bootstrap_episodes: int = 60
    aam_retrain_threshold: int = 120   # new executions before AAM retrains
    random_sample_episodes: int = 10   # real-env episodes per iteration
    validation_budget: int = 200      # promising plans executed per iteration
    episode_batch_size: int = 32      # lockstep cohort size (1 = sequential)
    engine_url: str = ""              # "tcp://host:port" of a repro-engine server ("" = in-process)
    num_agents: int = 1
    use_simulated: bool = True
    use_penalty: bool = True
    use_validation: bool = True
    seed: int = 7
    aam: AAMConfig = field(default_factory=AAMConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)

    def __post_init__(self) -> None:
        if self.episode_batch_size < 1:
            raise ValueError("episode_batch_size must be >= 1")
        if self.engine_url and not self.engine_url.startswith("tcp://"):
            raise ValueError(
                f"engine_url must look like tcp://host:port, got {self.engine_url!r}"
            )
        # Derive a private planner config instead of mutating the caller's
        # object: a PlannerConfig shared across FossConfigs must not alias.
        planner = replace(self.planner, max_steps=self.max_steps)
        if not self.use_penalty:
            planner = replace(planner, reward=replace(planner.reward, penalty_gamma=0.0))
        self.planner = planner


@dataclass
class IterationStats:
    """Diagnostics from one training iteration."""

    iteration: int
    episodes: int
    executions: int
    aam_trained: bool
    aam_accuracy: float
    mean_reward: float
    elapsed_s: float


class FossTrainer:
    """Owns every FOSS component and runs the training loop."""

    def __init__(
        self,
        workload: Workload,
        config: Optional[FossConfig] = None,
        database: Optional[EngineBackend] = None,
    ) -> None:
        self.workload = workload
        self.config = config if config is not None else FossConfig()
        # The injected backend (a FossSession's, which owns its lifecycle),
        # else the workload's in-process engine.  A remote engine is opened
        # and closed by FossSession alone.
        if database is None and self.config.engine_url:
            raise ValueError(
                "a FossTrainer does not connect to config.engine_url; "
                "FossSession.open connects it and injects the backend"
            )
        self.database: EngineBackend = database if database is not None else workload.database
        self.rng = np.random.default_rng(self.config.seed)

        max_nodes = 2 * max(workload.max_query_tables, 2)
        self.encoder = PlanEncoder(self.database.catalog, max_nodes=max_nodes)
        self.action_space = ActionSpace(max_tables=workload.max_query_tables)
        self.aam = AdvantageModel(
            num_tables=self.encoder.num_tables,
            num_columns=self.encoder.num_columns,
            max_nodes=max_nodes,
            config=self.config.aam,
            rng=self.rng,
        )
        self.aam_trainer = AAMTrainer(self.aam, rng=self.rng)
        self.buffer = ExecutionBuffer()
        self.advantage_fn = AdvantageFunction(self.config.planner.reward)

        self.planners: List[Planner] = []
        for agent_index in range(self.config.num_agents):
            planner_config = self._agent_config(agent_index)
            agent_rng = np.random.default_rng(self.config.seed + 1000 * (agent_index + 1))
            self.planners.append(
                Planner(
                    self.database,
                    self.encoder,
                    self.action_space,
                    self.aam,
                    config=planner_config,
                    rng=agent_rng,
                )
            )

        self.runners = [
            BatchedEpisodeRunner(planner, batch_size=self.config.episode_batch_size)
            for planner in self.planners
        ]
        self.real_env = RealEnvironment(self.database, self.buffer, self.advantage_fn)
        self.sim_env = SimulatedEnvironment(
            self.database,
            self.buffer,
            self.aam,
            self.encoder,
            max_steps=self.config.max_steps,
            advantage=self.advantage_fn,
        )
        self._last_aam_training_at = 0
        self.aam_accuracy = 0.0
        self.history: List[IterationStats] = []
        self.training_wall_s = 0.0

    # ------------------------------------------------------------------
    def _agent_config(self, agent_index: int) -> PlannerConfig:
        """Multi-agent mode diversifies agent strategies (paper §VI-C5)."""
        base = self.config.planner
        if agent_index == 0:
            return base
        ppo = replace(
            base.ppo,
            lr=base.ppo.lr * (0.5 if agent_index % 2 else 2.0),
            gamma=max(0.90, base.ppo.gamma - 0.04 * agent_index),
        )
        return replace(base, ppo=ppo)

    def _sample_queries(self, count: int) -> List[WorkloadQuery]:
        train = self.workload.train
        picks = self.rng.integers(0, len(train), size=count)
        return [train[int(i)] for i in picks]

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def bootstrap(self) -> Dict[str, float]:
        """Seed the execution buffer with a randomly-initialized planner.

        Fig. 3: before the first AAM training, candidate plans from the
        (random) planner are executed to form the initial training pool.
        """
        for runner in self.runners:
            episodes = self.config.bootstrap_episodes // max(len(self.planners), 1)
            queries = [wq.query for wq in self._sample_queries(max(episodes, 1))]
            runner.run(self.real_env, queries)
        return self.train_aam()

    def train_aam(self) -> Dict[str, float]:
        """Rebuild the AAM training pairs from the buffer and retrain."""
        samples = self.buffer.make_aam_samples(
            self.encoder,
            self.advantage_fn,
            max_steps=self.config.max_steps,
            rng=self.rng,
        )
        metrics = self.aam_trainer.train(samples)
        self.aam_accuracy = metrics["accuracy"]
        self._last_aam_training_at = self.buffer.total_added
        return metrics

    def run_iteration(self, iteration: int) -> IterationStats:
        """One full training iteration (Fig. 3)."""
        start = time.perf_counter()
        executions_before = self.buffer.total_added
        environment = self.sim_env if self.config.use_simulated else self.real_env

        episodes: List[Episode] = []
        per_agent = self.config.episodes_per_update // len(self.planners)
        rewards: List[float] = []
        for planner, runner in zip(self.planners, self.runners):
            queries = [wq.query for wq in self._sample_queries(per_agent)]
            agent_episodes = runner.run(environment, queries)
            planner.update_from_episodes(agent_episodes)
            episodes.extend(agent_episodes)
            rewards.extend(e.total_reward for e in agent_episodes)

        # Promising-plan validation (§VI-C4), flushed through the engine's
        # batch APIs so a remote backend validates in one round trip.
        if self.config.use_simulated and self.config.use_validation:
            queue = self.sim_env.drain_validation_queue()[: self.config.validation_budget]
            if queue:
                plannings = self.database.plan_many([query for query, _plan, _step in queue])
                originals = self.database.execute_many(
                    [(query, planning.plan, None) for (query, _, _), planning in zip(queue, plannings)]
                )
                results = self.database.execute_many(
                    [
                        (query, plan, DYNAMIC_TIMEOUT_FACTOR * original.latency_ms)
                        for (query, plan, _), original in zip(queue, originals)
                    ]
                )
                for (query, plan, step), result in zip(queue, results):
                    self.buffer.add(query, plan, step, result.latency_ms, result.timed_out)
        elif self.config.use_simulated:
            self.sim_env.drain_validation_queue()  # Off-Validation: discard

        # Periodic random sampling in the real environment.
        if self.config.use_simulated:
            queries = [wq.query for wq in self._sample_queries(self.config.random_sample_episodes)]
            self.runners[iteration % len(self.runners)].run(self.real_env, queries)

        # AAM retraining cadence.
        aam_trained = False
        if self.buffer.total_added - self._last_aam_training_at >= self.config.aam_retrain_threshold:
            self.train_aam()
            aam_trained = True

        elapsed = time.perf_counter() - start
        self.training_wall_s += elapsed
        stats = IterationStats(
            iteration=iteration,
            episodes=len(episodes),
            executions=self.buffer.total_added - executions_before,
            aam_trained=aam_trained,
            aam_accuracy=self.aam_accuracy,
            mean_reward=float(np.mean(rewards)) if rewards else 0.0,
            elapsed_s=elapsed,
        )
        self.history.append(stats)
        return stats

    def train(self, iterations: int, verbose: bool = False) -> List[IterationStats]:
        """Bootstrap (if needed) and run the given number of iterations."""
        if self.buffer.num_records() == 0:
            self.bootstrap()
        stats = []
        for iteration in range(iterations):
            result = self.run_iteration(iteration)
            if verbose:
                print(
                    f"[iter {iteration}] episodes={result.episodes} "
                    f"exec+={result.executions} aam_acc={result.aam_accuracy:.2f} "
                    f"reward={result.mean_reward:.2f} ({result.elapsed_s:.1f}s)"
                )
            stats.append(result)
        return stats

    # ------------------------------------------------------------------
    def make_optimizer(self):
        """The deployable FOSS optimizer using the trained components."""
        from repro.core.inference import FossOptimizer

        return FossOptimizer(
            database=self.database,
            planners=self.planners,
            aam=self.aam,
            encoder=self.encoder,
            max_steps=self.config.max_steps,
            episode_batch_size=self.config.episode_batch_size,
        )
