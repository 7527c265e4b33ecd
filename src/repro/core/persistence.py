"""The checkpoint: a trained FOSS doctor as one directory of two files.

* ``checkpoint.json``, format 3: the workload recipe, the fingerprint of
  the dataset the doctor was trained against (its engine's catalog's), the
  full :class:`FossConfig` and the AAM's last accuracy;
* ``weights.npz``: every network's parameters, keyed ``aam.<param>`` and
  ``agent<i>.<param>``.  The execution buffer is training-time state and
  is not saved.

This module is the only code that knows the format, and it loads the
directory as untrusted input, like a wire frame: :func:`read_checkpoint`
reads both files (never unpickling) and checks the manifest whole;
:func:`restore_checkpoint` checks every weight against the trainer's
networks (key set, dtype, shape, finiteness), and the trainer's engine
against the fingerprint, before it assigns any.  Every refusal, a format-2
directory (``session.json``) included, is one :class:`CheckpointError`.
The catalog is not saved: whatever loads a checkpoint has an engine that
holds one.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zipfile
from typing import Dict

import numpy as np

from repro.core.trainer import FossConfig
from repro.nn.layers import Module
from repro.nn.serialization import load_state_dict, save_state_dict
from repro.workloads.base import WorkloadSpec

FORMAT = 3
MANIFEST = "checkpoint.json"
WEIGHTS = "weights.npz"

_NUMBER = (int, float)  # by exact type: a bool is neither
#: Key -> its value's exact types, or a nested schema.
_SCHEMA = {
    "format": (int,),
    "workload": {"name": (str,), "scale": _NUMBER, "seed": (int,)},
    "dataset_fingerprint": (str,),
    "config": (dict,),
    "aam_accuracy": _NUMBER,
}


class CheckpointError(ValueError):
    """A checkpoint directory that cannot be restored as it stands."""


@dataclasses.dataclass(frozen=True)
class Checkpoint:
    """A checkpoint read by :func:`read_checkpoint`, its manifest checked."""

    path: str
    workload: WorkloadSpec
    dataset_fingerprint: str
    config: FossConfig
    aam_accuracy: float
    weights: Dict[str, np.ndarray]


def _networks(trainer) -> Dict[str, Module]:
    networks: Dict[str, Module] = {"aam": trainer.aam}
    for index, planner in enumerate(trainer.planners):
        networks[f"agent{index}"] = planner.policy
    return networks


def save_checkpoint(trainer, directory: str) -> None:
    """Write a :class:`~repro.core.trainer.FossTrainer` as a checkpoint."""
    spec = trainer.workload.spec
    if spec is None:
        raise ValueError(
            "saving a checkpoint needs a workload built from a WorkloadSpec (a workload "
            "name, or build_workload_by_name) so loading can rebuild the workload"
        )
    manifest = {
        "format": FORMAT,
        "workload": dataclasses.asdict(spec),
        # The engine's, local or remote; crc32-based, never builtin hash():
        # a drifted datagen or another server must not pass unseen.
        "dataset_fingerprint": trainer.database.catalog.fingerprint,
        "config": dataclasses.asdict(trainer.config),
        "aam_accuracy": float(trainer.aam_accuracy),
    }
    os.makedirs(directory, exist_ok=True)
    save_state_dict(
        {
            f"{prefix}.{name}": value
            for prefix, network in _networks(trainer).items()
            for name, value in network.state_dict().items()
        },
        os.path.join(directory, WEIGHTS),
    )
    with open(os.path.join(directory, MANIFEST), "w") as handle:
        json.dump(manifest, handle, indent=2, allow_nan=False)


def _expect(condition: bool, problem: str) -> None:
    if not condition:
        raise CheckpointError(problem)


def _refuse_constant(name: str):
    raise ValueError(f"{MANIFEST} holds the non-finite number {name}")


def _check_schema(data, schema: dict, where: str) -> None:
    _expect(type(data) is dict, f"{where} must be an object")
    missing = schema.keys() - data.keys()
    unexpected = data.keys() - schema.keys()
    _expect(
        not missing and not unexpected,
        f"{where} keys: missing {sorted(missing)}, unexpected {sorted(unexpected)}",
    )
    for key, value in data.items():
        if isinstance(schema[key], dict):
            _check_schema(value, schema[key], f"{where}.{key}")
        else:
            _expect(type(value) in schema[key], f"{where}.{key} has type {type(value).__name__}")


def _from_jsonable(default, value, where: str):
    """``value`` rebuilt as the type of ``default``: a config dataclass, saved
    via :func:`dataclasses.asdict`, or one of its fields.  Types come from the
    defaults, so the round trip needs no schema beside the classes.  Unknown
    keys (a field since removed) are ignored."""
    if dataclasses.is_dataclass(default):
        _expect(type(value) is dict, f"{where} must be an object")
        kwargs = {
            field.name: _from_jsonable(getattr(default, field.name), value[field.name],
                                       f"{where}.{field.name}")
            for field in dataclasses.fields(default)
            if field.name in value
        }
        try:
            return type(default)(**kwargs)
        except ValueError as exc:
            raise CheckpointError(f"{where}: {exc}") from exc
    if isinstance(default, tuple):
        _expect(type(value) is list, f"{where} must be a list")
        return tuple(_from_jsonable(default[0], item, f"{where}[]") for item in value)
    kinds = _NUMBER if isinstance(default, float) else (type(default),)
    _expect(type(value) in kinds, f"{where} must be {type(default).__name__}, got {value!r}")
    return value


def read_checkpoint(directory: str) -> Checkpoint:
    """Read a checkpoint directory and check its manifest whole."""
    if not os.path.exists(os.path.join(directory, MANIFEST)):
        _expect(
            not os.path.exists(os.path.join(directory, "session.json")),
            f"{directory!r} is a format-2 checkpoint (session.json); only format "
            f"{FORMAT} ({MANIFEST} + {WEIGHTS}) is read, so save the doctor again",
        )
    try:
        with open(os.path.join(directory, MANIFEST), "rb") as handle:
            manifest = json.loads(handle.read(), parse_constant=_refuse_constant)
        weights = load_state_dict(os.path.join(directory, WEIGHTS))
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"unreadable checkpoint {directory!r}: {exc}") from exc
    _expect(
        type(manifest) is dict and manifest.get("format") == FORMAT,
        f"{MANIFEST} is not format {FORMAT}, the only one read",
    )
    _check_schema(manifest, _SCHEMA, MANIFEST)
    return Checkpoint(
        path=directory,
        workload=WorkloadSpec(**manifest["workload"]),
        dataset_fingerprint=manifest["dataset_fingerprint"],
        config=_from_jsonable(FossConfig(), manifest["config"], "config"),
        aam_accuracy=float(manifest["aam_accuracy"]),
        weights=weights,
    )


def restore_checkpoint(trainer, checkpoint: Checkpoint) -> None:
    """Assign a checkpoint's weights to a trainer, or refuse and assign none.

    The trainer's engine must hold the checkpoint's dataset fingerprint,
    and the trainer must have its workload recipe, agent count,
    ``max_steps`` and network shapes.  Restoring moves the AAM's weight
    version, so nothing cached under the old weights answers again.
    """
    actual = trainer.database.catalog.fingerprint
    _expect(
        actual == checkpoint.dataset_fingerprint,
        f"dataset fingerprint mismatch loading {checkpoint.path!r}: the manifest "
        f"records {checkpoint.dataset_fingerprint} but the engine serves {actual}; the "
        f"restored model would be optimizing a different database",
    )
    saved = checkpoint.config
    _expect(
        checkpoint.workload == trainer.workload.spec,
        f"checkpoint is for {checkpoint.workload}, trainer has {trainer.workload.spec}",
    )
    _expect(
        (saved.num_agents, saved.max_steps) == (len(trainer.planners), trainer.config.max_steps),
        f"checkpoint has {saved.num_agents} agents and max_steps {saved.max_steps}, trainer "
        f"{len(trainer.planners)} and {trainer.config.max_steps}",
    )
    networks = _networks(trainer)
    params = {
        f"{prefix}.{name}": param.data
        for prefix, network in networks.items()
        for name, param in network.named_parameters()
    }
    weights = checkpoint.weights
    _expect(
        weights.keys() == params.keys(),
        f"{WEIGHTS} keys: missing {sorted(params.keys() - weights.keys())}, "
        f"unexpected {sorted(weights.keys() - params.keys())}",
    )
    for key, value in weights.items():
        expected = params[key]
        _expect(
            type(value) is np.ndarray
            and (value.dtype, value.shape) == (expected.dtype, expected.shape),
            f"{WEIGHTS}[{key!r}] is not a {expected.dtype} array of shape {expected.shape}",
        )
        _expect(bool(np.isfinite(value).all()), f"{WEIGHTS}[{key!r}] holds NaN or inf")
    for prefix, network in networks.items():
        network.load_state_dict(
            {name: weights[f"{prefix}.{name}"] for name, _ in network.named_parameters()}
        )
    trainer.aam_accuracy = checkpoint.aam_accuracy
