"""The lifecycle facade: one object that owns a FOSS deployment end to end.

``FossSession`` is the paper's deliverable seen from the outside — a plan
doctor a database can stand up, train, persist and serve from — without
hand-wiring datasets, engines, backends, trainers and optimizers:

    from repro.api import FossSession

    with FossSession.open("job", scale=0.05, seed=1) as session:
        session.train(iterations=3)
        session.save("checkpoints/job-doctor")
        service = session.service()
        plan = service.optimize_sql("SELECT COUNT(*) FROM title AS t ...")

The session builds the workload (dataset + query split) and the engine
backend eagerly — cheap enough to make ``session.backend`` usable for
exploration — and the trainer/optimizer lazily, on first use.  ``save`` /
``load`` wrap :mod:`repro.core.persistence` plus a session manifest, so a
trained doctor round-trips as one directory artifact.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from typing import Optional

from repro import obs
from repro.core.inference import FossOptimizer
from repro.core.persistence import load_trainer, save_trainer
from repro.core.trainer import FossConfig, FossTrainer
from repro.engine.backend import EngineBackend, make_backend
from repro.engine.database import dataset_fingerprint
from repro.workloads.base import Workload, build_workload_by_name

_SESSION_MANIFEST = "session.json"


def _config_from_jsonable(cls, data: dict):
    """Rebuild a config dataclass saved via :func:`dataclasses.asdict`.

    Nested dataclasses and tuple-typed fields are recognized from the
    field defaults, so the round trip needs no schema beside the classes
    themselves.  Unknown keys — from a newer writer, or a field an older
    writer saved that has since been removed — are ignored.
    """
    kwargs = {}
    for field in dataclasses.fields(cls):
        if field.name not in data:
            continue
        value = data[field.name]
        if field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
            default = field.default_factory()  # type: ignore[misc]
        else:
            default = field.default
        if dataclasses.is_dataclass(default):
            kwargs[field.name] = _config_from_jsonable(type(default), value)
        elif isinstance(default, tuple):
            kwargs[field.name] = tuple(value)
        else:
            kwargs[field.name] = value
    return cls(**kwargs)


class FossSession:
    """Owns workload + engine backend + trainer + deployable optimizer."""

    def __init__(
        self,
        workload: Workload,
        config: FossConfig,
        backend: EngineBackend,
        owns_backend: bool = True,
    ) -> None:
        self.workload = workload
        self.config = config
        self.backend = backend
        self._owns_backend = owns_backend
        self._trainer: Optional[FossTrainer] = None
        self._optimizer: Optional[FossOptimizer] = None
        # Shared by every service built from this session: the optimizer's
        # episode runners/caches are single-flight, and two services over
        # the same optimizer must serialize on one lock, not one each.
        self._optimize_lock = threading.Lock()
        # Guards the lazy trainer/optimizer builds (reentrant: optimizer()
        # builds via trainer()) so concurrent first callers cannot
        # construct two trainers over one backend.
        self._build_lock = threading.RLock()
        self._closed = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        workload="job",
        *,
        scale: float = 1.0,
        seed: int = 1,
        config: Optional[FossConfig] = None,
        backend: Optional[EngineBackend] = None,
    ) -> "FossSession":
        """Stand up a session over a workload.

        ``workload`` is either a benchmark name (``"job"`` / ``"tpcds"`` /
        ``"stack"``, built at ``scale``/``seed``) or a prebuilt
        :class:`~repro.workloads.base.Workload`.  The engine backend is
        selected by the config unless one is injected explicitly: a
        non-empty ``config.engine_url`` connects a
        :class:`~repro.engine.remote.client.RemoteBackend` to a
        ``repro-engine`` server at that address (fingerprint-checked
        against the locally built dataset), otherwise the workload's
        in-process engine serves.
        """
        if config is None:
            config = FossConfig()
        if isinstance(workload, str):
            workload = build_workload_by_name(workload, scale=scale, seed=seed)
        elif not isinstance(workload, Workload):
            raise TypeError(
                f"workload must be a name or a Workload, got {type(workload).__name__}"
            )
        owns_backend = backend is None
        if backend is None:
            backend = make_backend(workload, config.engine_url)
        return cls(workload, config, backend, owns_backend=owns_backend)

    # ------------------------------------------------------------------
    # components
    # ------------------------------------------------------------------
    def trainer(self) -> FossTrainer:
        """The underlying :class:`FossTrainer`, built on first use."""
        self._check_open()
        with self._build_lock:
            if self._trainer is None:
                self._trainer = FossTrainer(self.workload, self.config, database=self.backend)
            return self._trainer

    def optimizer(self) -> FossOptimizer:
        """The deployable FOSS optimizer over this session's components."""
        with self._build_lock:
            if self._optimizer is None:
                self._optimizer = self.trainer().make_optimizer()
            return self._optimizer

    def service(self, **kwargs):
        """A request/response :class:`~repro.api.service.OptimizerService`.

        Every service built here shares one optimize lock, so concurrent
        use of several services over this session's (single-flight)
        optimizer stays serialized.  ``kwargs`` pass through to the
        service — including the request-lifecycle knobs (``max_pending``,
        ``tenant``, ``clock``, ``trace_hook``).
        """
        from repro.api.service import OptimizerService

        kwargs.setdefault("optimize_lock", self._optimize_lock)
        return OptimizerService(self.optimizer(), self.backend, **kwargs)

    def observability(self) -> "obs.Observability":
        """The process-wide :class:`repro.obs.Observability` facade.

        Exposes the registry snapshot, Prometheus/JSON rendering,
        ``dump()`` and the periodic dumper.  Also registers the backend's
        ``stats()`` and the nn profiler as snapshot sources (idempotent),
        so one JSON snapshot carries metrics, spans, engine counters and
        per-op nn profiles together.
        """
        self._check_open()
        from repro.nn import profile as nn_profile

        obs.register_snapshot_source("backend", self.backend.stats)
        obs.register_snapshot_source("nn_profile", nn_profile.observability_snapshot)
        return obs.get_observability()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def train(self, iterations: int, verbose: bool = False):
        """Bootstrap (if needed) and run training iterations."""
        return self.trainer().train(iterations, verbose=verbose)

    def save(self, path: str) -> None:
        """Persist the trained doctor as one directory artifact.

        Writes the model weights (:func:`repro.core.persistence.save_trainer`)
        plus a session manifest recording the workload recipe and the full
        config, so :meth:`load` can rebuild an identical session.
        """
        if self.workload.spec is None:
            raise ValueError(
                "FossSession.save needs a workload built from a WorkloadSpec "
                "(use FossSession.open with a workload name, or a workload from "
                "build_workload_by_name) so load() can rebuild the dataset"
            )
        save_trainer(self.trainer(), path)
        manifest = {
            "format": 2,
            "workload": {
                "name": self.workload.spec.name,
                "scale": self.workload.spec.scale,
                "seed": self.workload.spec.seed,
            },
            # A crc32-based content fingerprint of the dataset (never
            # builtin hash(), which varies per process): load() rebuilds
            # the dataset from the spec above, and a silently drifted
            # datagen would hand the restored model a different database.
            "dataset_fingerprint": dataset_fingerprint(self.workload.dataset),
            "config": dataclasses.asdict(self.config),
        }
        remote_fingerprint = getattr(self.backend, "remote_fingerprint", None)
        if remote_fingerprint is not None:
            # This session plans against a remote engine: record *its*
            # dataset fingerprint too (the connect-time handshake proved it
            # equal to the local one), so load() can catch client/server
            # datagen drift against the engine actually serving the plans.
            manifest["remote"] = {
                "engine_url": getattr(self.backend, "url", ""),
                "dataset_fingerprint": remote_fingerprint,
            }
        with open(os.path.join(path, _SESSION_MANIFEST), "w") as handle:
            json.dump(manifest, handle, indent=2)

    @classmethod
    def load(cls, path: str, backend: Optional[EngineBackend] = None) -> "FossSession":
        """Rebuild a session saved by :meth:`save` and restore its weights.

        The dataset is rebuilt from the saved workload recipe and checked
        against the manifest's fingerprint: if datagen drifted since the
        save, the restored model would silently optimize a different
        database, so the mismatch fails loudly here.  (Manifests from
        before the fingerprint was recorded load without the check.)
        """
        with open(os.path.join(path, _SESSION_MANIFEST)) as handle:
            manifest = json.load(handle)
        config = _config_from_jsonable(FossConfig, manifest["config"])
        spec = manifest["workload"]
        workload = build_workload_by_name(spec["name"], scale=spec["scale"], seed=spec["seed"])
        expected = manifest.get("dataset_fingerprint")
        if expected is not None:
            actual = dataset_fingerprint(workload.dataset)
            if actual != expected:
                raise ValueError(
                    f"dataset fingerprint mismatch loading {path!r}: the manifest "
                    f"records {expected} but rebuilding workload "
                    f"{spec['name']!r} (scale={spec['scale']}, seed={spec['seed']}) "
                    f"produced {actual}; the data generator has drifted since this "
                    f"session was saved, so the restored model would be optimizing "
                    f"a different database"
                )
            if backend is not None:
                # An injected backend is the dataset the restored model will
                # actually plan against — it must match the manifest too.
                injected = dataset_fingerprint(backend.dataset)
                if injected != expected:
                    raise ValueError(
                        f"dataset fingerprint mismatch loading {path!r}: the "
                        f"injected backend's dataset has fingerprint {injected} "
                        f"but the manifest records {expected}; the restored model "
                        f"would be optimizing a different database"
                    )
                # For a remote backend the local mirror above is only half
                # the story: the *server's* dataset is the one executing
                # plans, so its handshake fingerprint must match as well.
                remote_fp = getattr(backend, "remote_fingerprint", None)
                if remote_fp is not None and remote_fp != expected:
                    raise ValueError(
                        f"dataset fingerprint mismatch loading {path!r}: the "
                        f"remote engine at "
                        f"{getattr(backend, 'url', '<unknown>')} serves "
                        f"fingerprint {remote_fp} but the manifest records "
                        f"{expected}; the server's data generator has drifted "
                        f"from the one this session was saved against"
                    )
        session = cls.open(workload=workload, config=config, backend=backend)
        load_trainer(session.trainer(), path)
        return session

    def close(self) -> None:
        """Release the engine backend (remote connections)."""
        if self._closed:
            return
        self._closed = True
        if self._trainer is not None:
            self._trainer.close()
        if self._owns_backend:
            close = getattr(self.backend, "close", None)
            if close is not None:
                close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("FossSession is closed")

    def __enter__(self) -> "FossSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
