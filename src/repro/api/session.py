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

The session builds the engine backend and the workload (the query split,
bound through that backend) eagerly — cheap enough to make
``session.backend`` usable for exploration — and the trainer/optimizer
lazily, on first use.  A local backend is a fresh in-process engine over
the generated dataset; a remote one holds the server's catalog and
generates no rows.  ``save`` / ``load`` round-trip a trained doctor as
one checkpoint directory through :mod:`repro.core.persistence`, the one
module that knows its format; a session opens no file itself.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro import obs
from repro.core import persistence
from repro.core.inference import FossOptimizer
from repro.core.trainer import FossConfig, FossTrainer
from repro.engine.backend import EngineBackend
from repro.workloads.base import Workload, WorkloadSpec, build_workload_by_name

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
        ``repro-engine`` server at that address, which must advertise the
        workload's recipe; otherwise the workload's in-process engine
        serves.  A named workload's queries are bound through that
        backend, so a remote one generates no rows here.
        """
        if config is None:
            config = FossConfig()
        if not isinstance(workload, (str, Workload)):
            raise TypeError(
                f"workload must be a name or a Workload, got {type(workload).__name__}"
            )
        owns_backend = backend is None
        if backend is None and config.engine_url:
            # Imported lazily: the remote subsystem is optional plumbing,
            # and the default in-process path must not pay for it.
            from repro.engine.remote.client import RemoteBackend

            spec = workload.spec if isinstance(workload, Workload) else WorkloadSpec(
                workload, scale=scale, seed=seed
            )
            backend = RemoteBackend(config.engine_url, spec=spec)
        if isinstance(workload, str):
            try:
                workload = build_workload_by_name(workload, scale=scale, seed=seed, backend=backend)
            except BaseException:
                if owns_backend and backend is not None:
                    backend.close()
                raise
        if backend is None:
            backend = workload.database
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
        ``tenant``, ``clock``).
        """
        from repro.api.service import OptimizerService

        kwargs.setdefault("optimize_lock", self._optimize_lock)
        return OptimizerService(self.optimizer(), self.backend, **kwargs)

    def observability(self) -> "obs.Observability":
        """The process-wide :class:`repro.obs.Observability` facade.

        Exposes the registry snapshot, Prometheus/JSON rendering and
        ``dump()``.  Also registers the backend's ``stats()`` as a snapshot
        source (idempotent), so one JSON snapshot carries metrics, spans
        and engine counters together.
        """
        self._check_open()
        obs.register_snapshot_source("backend", self.backend.stats)
        return obs.get_observability()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def train(self, iterations: int, verbose: bool = False):
        """Bootstrap (if needed) and run training iterations."""
        return self.trainer().train(iterations, verbose=verbose)

    def save(self, path: str) -> None:
        """Persist the trained doctor as one checkpoint directory
        (:func:`repro.core.persistence.save_checkpoint`): its weights, the
        workload recipe, the engine's dataset fingerprint and the full
        config, so :meth:`load` can rebuild an identical session."""
        persistence.save_checkpoint(self.trainer(), path)

    @classmethod
    def load(cls, path: str, backend: Optional[EngineBackend] = None) -> "FossSession":
        """Rebuild a session saved by :meth:`save` and restore its weights.

        The session is opened as :meth:`open` opens one, over the
        checkpoint's recipe and config: an injected ``backend`` binds the
        queries, and only without one is the dataset generated here.  The
        checkpoint is checked whole before any weight is assigned, and the
        backend's catalog must hold its fingerprint: a drifted datagen or
        another server would have the restored model silently optimize a
        different database.  Any refusal raises
        :class:`repro.core.persistence.CheckpointError`.
        """
        checkpoint = persistence.read_checkpoint(path)
        spec = checkpoint.workload
        try:
            session = cls.open(
                spec.name, scale=spec.scale, seed=spec.seed, config=checkpoint.config,
                backend=backend,
            )
        except ValueError as exc:  # an unknown workload, or SQL the backend cannot bind
            raise persistence.CheckpointError(f"checkpoint {path!r}: {exc}") from exc
        try:
            persistence.restore_checkpoint(session.trainer(), checkpoint)
        except BaseException:
            session.close()
            raise
        return session

    def close(self) -> None:
        """Release the engine backend (remote connections)."""
        if self._closed:
            return
        self._closed = True
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
