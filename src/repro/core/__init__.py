"""FOSS core: the plan-doctor (planner + asymmetric advantage model).

This package implements the paper's contribution:

* :mod:`repro.core.icp` — the *incomplete plan* abstraction (left-deep join
  order + join methods) with the paper's T/O node labelling;
* :mod:`repro.core.actions` — the Swap/Override action space, legality
  masks, the post-Swap restriction, and the closed-form ``minsteps``;
* :mod:`repro.core.encoding` — QueryFormer-lite plan encoding of
  left-deep plans (node features; structure types, heights and the
  reachability attention mask, all read off the table count);
* :mod:`repro.core.aam` — the asymmetric advantage model (transformer state
  network + position-aware pairwise head, asymmetric focal loss);
* :mod:`repro.core.reward` — advantage discretization, step/episode
  bounties and the minsteps penalty;
* :mod:`repro.core.planner` — the DRL planner (Algorithm 1) over either
  environment;
* :mod:`repro.core.batching` — lockstep batched episode execution (one
  policy/AAM forward per cohort step instead of one per episode);
* :mod:`repro.core.simenv` — the simulated environment Ê(Γp, θadv);
* :mod:`repro.core.trainer` — the full training loop (Fig. 3);
* :mod:`repro.core.inference` — the deployed FOSS optimizer (candidate
  generation + AAM tournament selection).
"""

from repro.core.icp import IncompletePlan
from repro.core.actions import ActionSpace
from repro.core.encoding import PlanEncoder, EncodedPlan
from repro.core.aam import AdvantageModel, AAMConfig, AAMTrainer
from repro.core.reward import AdvantageFunction, RewardConfig
from repro.core.planner import Planner, PlannerConfig, Episode
from repro.core.batching import BatchedEpisodeRunner
from repro.core.simenv import SimulatedEnvironment, RealEnvironment
from repro.core.trainer import FossTrainer, FossConfig
from repro.core.inference import FossOptimizer, bind_sql
from repro.engine.context import OptimizeError

__all__ = [
    "IncompletePlan",
    "ActionSpace",
    "PlanEncoder",
    "EncodedPlan",
    "AdvantageModel",
    "AAMConfig",
    "AAMTrainer",
    "AdvantageFunction",
    "RewardConfig",
    "Planner",
    "PlannerConfig",
    "Episode",
    "BatchedEpisodeRunner",
    "SimulatedEnvironment",
    "RealEnvironment",
    "FossTrainer",
    "FossConfig",
    "FossOptimizer",
    "OptimizeError",
    "bind_sql",
]
