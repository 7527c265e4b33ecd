"""Save/load trained FOSS models.

Persists the AAM (state network + pairwise head) and every agent's
actor-critic weights as ``.npz`` archives, so a trained plan doctor can be
reloaded for inference without retraining.  The execution buffer is not
persisted — it is training-time state.
"""

from __future__ import annotations

import json
import os
from typing import List

from repro.nn.serialization import load_state_dict, save_state_dict


def save_trainer(trainer, directory: str) -> None:
    """Persist a :class:`~repro.core.trainer.FossTrainer`'s learned weights."""
    os.makedirs(directory, exist_ok=True)
    save_state_dict(trainer.aam.state_dict(), os.path.join(directory, "aam.npz"))
    for index, planner in enumerate(trainer.planners):
        save_state_dict(
            planner.policy.state_dict(), os.path.join(directory, f"agent{index}.npz")
        )
    manifest = {
        "num_agents": len(trainer.planners),
        "max_steps": trainer.config.max_steps,
        "workload": trainer.workload.name,
        "aam_accuracy": trainer.aam_accuracy,
    }
    with open(os.path.join(directory, "manifest.json"), "w") as handle:
        json.dump(manifest, handle, indent=2)


def load_trainer(trainer, directory: str) -> None:
    """Restore weights saved by :func:`save_trainer` into a fresh trainer.

    The trainer must have been constructed with the same workload shape
    (schema + max tables) and agent count; shape mismatches raise.
    """
    with open(os.path.join(directory, "manifest.json")) as handle:
        manifest = json.load(handle)
    if manifest["num_agents"] != len(trainer.planners):
        raise ValueError(
            f"checkpoint has {manifest['num_agents']} agents, trainer has {len(trainer.planners)}"
        )
    if manifest["max_steps"] != trainer.config.max_steps:
        raise ValueError(
            f"checkpoint max_steps {manifest['max_steps']} != config {trainer.config.max_steps}"
        )
    # Moves the AAM's weight version, so nothing cached under the old
    # weights (statevecs, training or serving scores) answers again.
    trainer.aam.load_state_dict(load_state_dict(os.path.join(directory, "aam.npz")))
    for index, planner in enumerate(trainer.planners):
        planner.policy.load_state_dict(
            load_state_dict(os.path.join(directory, f"agent{index}.npz"))
        )
    trainer.aam_accuracy = manifest.get("aam_accuracy", 0.0)
