"""Model persistence tests: save/load trained FOSS weights, and hostile
checkpoints refused whole before any weight is assigned."""

import json
import os
import shutil

import numpy as np
import pytest

from repro.api import FossSession
from repro.core.aam import AAMConfig
from repro.core.persistence import (
    CheckpointError,
    read_checkpoint,
    restore_checkpoint,
    save_checkpoint,
)
from repro.core.trainer import FossConfig, FossTrainer
from repro.optimizer.plans import plan_signature


def tiny_config(**overrides) -> FossConfig:
    defaults = dict(
        max_steps=3,
        episodes_per_update=8,
        bootstrap_episodes=6,
        aam_retrain_threshold=40,
        random_sample_episodes=1,
        validation_budget=5,
        seed=33,
        aam=AAMConfig(d_model=32, d_embed=8, d_state=32, num_heads=2, num_layers=1, ff_hidden=32, epochs=1),
    )
    defaults.update(overrides)
    return FossConfig(**defaults)


class TestPersistence:
    def test_roundtrip_preserves_inference(self, job_workload, tmp_path):
        trainer = FossTrainer(job_workload, tiny_config())
        trainer.bootstrap()
        query = job_workload.test[0].query
        before = trainer.make_optimizer().optimize(query)

        save_checkpoint(trainer, str(tmp_path / "ckpt"))

        fresh = FossTrainer(job_workload, tiny_config(seed=99))
        restore_checkpoint(fresh, read_checkpoint(str(tmp_path / "ckpt")))
        after = fresh.make_optimizer().optimize(query)
        assert plan_signature(after.plan) == plan_signature(before.plan)

    def test_roundtrip_preserves_aam_scores(self, job_workload, tmp_path):
        trainer = FossTrainer(job_workload, tiny_config())
        trainer.bootstrap()
        db = job_workload.database
        wq = job_workload.train[0]
        encoded = trainer.encoder.encode(wq.query, db.plan(wq.query).plan)
        before = trainer.aam.predict_scores([encoded], np.zeros(1), [encoded], np.full(1, 0.5))

        save_checkpoint(trainer, str(tmp_path / "ckpt"))
        fresh = FossTrainer(job_workload, tiny_config(seed=55))
        restore_checkpoint(fresh, read_checkpoint(str(tmp_path / "ckpt")))
        after = fresh.aam.predict_scores([encoded], np.zeros(1), [encoded], np.full(1, 0.5))
        assert np.array_equal(before, after)

    def test_agent_count_mismatch_raises(self, job_workload, tmp_path):
        trainer = FossTrainer(job_workload, tiny_config())
        trainer.bootstrap()
        save_checkpoint(trainer, str(tmp_path / "ckpt"))
        two_agents = FossTrainer(job_workload, tiny_config(num_agents=2))
        with pytest.raises(ValueError):
            restore_checkpoint(two_agents, read_checkpoint(str(tmp_path / "ckpt")))

    def test_max_steps_mismatch_raises(self, job_workload, tmp_path):
        trainer = FossTrainer(job_workload, tiny_config())
        trainer.bootstrap()
        save_checkpoint(trainer, str(tmp_path / "ckpt"))
        other = FossTrainer(job_workload, tiny_config(max_steps=4))
        with pytest.raises(ValueError):
            restore_checkpoint(other, read_checkpoint(str(tmp_path / "ckpt")))

    def test_manifest_written(self, job_workload, tmp_path):
        import json
        import os

        trainer = FossTrainer(job_workload, tiny_config())
        trainer.bootstrap()
        save_checkpoint(trainer, str(tmp_path / "ckpt"))
        with open(os.path.join(str(tmp_path / "ckpt"), "checkpoint.json")) as handle:
            manifest = json.load(handle)
        assert manifest["workload"]["name"] == "job"
        assert manifest["config"]["num_agents"] == 1


# ----------------------------------------------------------------------
# hostile checkpoints
# ----------------------------------------------------------------------
def _edit_manifest(edit):
    def mutate(path):
        manifest_path = os.path.join(path, "checkpoint.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        edit(manifest)
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)

    return mutate


def _edit_weights(edit):
    def mutate(path):
        weights_path = os.path.join(path, "weights.npz")
        with np.load(weights_path, allow_pickle=False) as archive:
            weights = {name: archive[name] for name in archive.files}
        edit(weights)
        np.savez(weights_path, **weights)

    return mutate


def _edit_last_array(change):
    """Edit the archive's last array, an agent's: a restore that assigned
    as it went would already have overwritten the AAM."""

    def edit(weights):
        last = list(weights)[-1]
        assert last.startswith("agent0.")
        weights[last] = change(weights[last].copy())

    return _edit_weights(edit)


def _poison(value):
    def change(array):
        array.flat[0] = value
        return array

    return change


def _truncate(path):
    weights_path = os.path.join(path, "weights.npz")
    with open(weights_path, "rb") as handle:
        data = handle.read()
    with open(weights_path, "wb") as handle:
        handle.write(data[: len(data) // 2])


def _format_2(path):
    """A format-2 directory: ``session.json`` and no ``checkpoint.json``."""
    with open(os.path.join(path, "checkpoint.json")) as handle:
        manifest = json.load(handle)
    manifest["format"] = 2
    with open(os.path.join(path, "session.json"), "w") as handle:
        json.dump(manifest, handle)
    os.remove(os.path.join(path, "checkpoint.json"))


MUTATIONS = {
    "missing_key": _edit_manifest(lambda manifest: manifest.pop("aam_accuracy")),
    "wrong_type": _edit_manifest(lambda manifest: manifest["config"]["aam"].update(d_model=32.0)),
    "wrong_type_workload": _edit_manifest(lambda manifest: manifest["workload"].update(seed="1")),
    "foreign_workload": _edit_manifest(lambda manifest: manifest["workload"].update(name="tpch")),
    "manifest_nan": _edit_manifest(lambda manifest: manifest.update(aam_accuracy=float("nan"))),
    "extra_array": _edit_weights(lambda weights: weights.update({"aam.extra": np.zeros(3)})),
    "missing_array": _edit_weights(lambda weights: weights.pop(list(weights)[-1])),
    "wrong_shape": _edit_last_array(lambda array: np.zeros(array.shape + (1,))),
    "nan": _edit_last_array(_poison(np.nan)),
    "inf": _edit_last_array(_poison(-np.inf)),
    "object_array": _edit_last_array(lambda array: np.array([{"weights": array}], dtype=object)),
    "truncated": _truncate,
    "format_2": _format_2,
}


@pytest.fixture(scope="module")
def saved_doctor(job_workload, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("saved") / "doctor")
    FossSession.open(workload=job_workload, config=tiny_config()).save(path)
    return path


@pytest.fixture(scope="module")
def other_trainer(job_workload):
    """A trainer whose weights differ from the saved doctor's everywhere."""
    return FossTrainer(job_workload, tiny_config(seed=99))


def _weights(trainer):
    return [trainer.aam.state_dict()] + [p.policy.state_dict() for p in trainer.planners]


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_hostile_checkpoint_is_refused_whole(mutation, saved_doctor, other_trainer, tmp_path):
    path = str(tmp_path / "doctor")
    shutil.copytree(saved_doctor, path)
    MUTATIONS[mutation](path)

    with pytest.raises(CheckpointError):
        FossSession.load(path)

    before, version = _weights(other_trainer), other_trainer.aam.version
    with pytest.raises(CheckpointError):
        restore_checkpoint(other_trainer, read_checkpoint(path))
    assert other_trainer.aam.version == version
    for saved, now in zip(before, _weights(other_trainer)):
        assert saved.keys() == now.keys()
        for name in saved:
            np.testing.assert_array_equal(now[name], saved[name])


def test_saved_directory_holds_exactly_two_files(job_workload, tmp_path):
    for num_agents in (1, 2):
        path = tmp_path / f"agents{num_agents}"
        FossSession.open(workload=job_workload, config=tiny_config(num_agents=num_agents)).save(
            str(path)
        )
        assert sorted(os.listdir(path)) == ["checkpoint.json", "weights.npz"]
        with np.load(path / "weights.npz", allow_pickle=False) as archive:
            prefixes = {name.split(".")[0] for name in archive.files}
        assert prefixes == {"aam"} | {f"agent{i}" for i in range(num_agents)}
