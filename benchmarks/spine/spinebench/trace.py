"""Spans around the calls into each layer, recorded from outside ``src/``.

The traced run of a workload replaces, for as long as
:func:`instrumented` is open, the public methods in :func:`targets` with
wrappers that record one span per call — name, start, end, parent and
thread — into a :class:`Tracer` held in memory.  Every internal call
site in ``repro`` reaches these methods through ``self.``/``getattr``,
so patching the class attribute is enough and nothing under ``src/``
changes.  Spans inside the program are a later change (ROADMAP item 2);
their names should match :data:`spinebench.settings.LAYERS`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread")

    def __init__(self, id: int, name: str, start: float, parent: Optional[int], thread: int):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread

    def as_dict(self) -> Dict[str, object]:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """An in-memory span log with one open-span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []  # list.append is atomic under the GIL
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the body; closed even when it raises.

        A layer calling itself (``plan_many`` looping over ``plan``) stays
        one span: the inner call would only move time between two spans
        of the same name and inflate ``calls``.
        """
        stack = self._stack()
        if stack and stack[-1].name == name:
            yield
            return
        parent = stack[-1].id if stack else None
        span = Span(next(self._ids), name, self.clock(), parent, threading.get_ident())
        stack.append(span)
        try:
            yield
        finally:
            span.end = self.clock()
            stack.pop()
            self.spans.append(span)

    def wrap(self, name: str, fn: Callable) -> Callable:
        # functools.wraps keeps inspect.signature(fn) intact: the service
        # probes optimize_many's signature for a ``ctxs`` parameter.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([span.as_dict() for span in self.spans], handle)


def self_times(spans: Iterable[Span]) -> Dict[str, Tuple[float, int]]:
    """``{name: (self seconds, calls)}``: duration minus child spans."""
    spans = list(spans)
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.end - span.start
    totals: Dict[str, Tuple[float, int]] = {}
    for span in spans:
        own = span.end - span.start - child_time.get(span.id, 0.0)
        seconds, calls = totals.get(span.name, (0.0, 0))
        totals[span.name] = (seconds + own, calls + 1)
    return totals


def covered_time(spans: Iterable[Span]) -> float:
    """Seconds during which some span was open on some thread.

    On one thread this is the sum of every self time; with several
    threads overlapping spans count once, so ``wall - covered`` is the
    time no layer can account for.
    """
    roots = sorted((s.start, s.end) for s in spans if s.parent is None)
    covered = 0.0
    reach = float("-inf")
    for start, end in roots:
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


UNTIMED = ("api.session.load",)  # spans the harness opens outside the timed wall


def layer_budget(
    spans: Iterable[Span], wall_s: float, passes: int, layers: List[str], slowness: float = 1.0
) -> Dict[str, float]:
    """The per-layer rows of a traced run, one triple per layer name.

    ``wall_s`` is the timed wall of the ``passes`` traced passes; ``share``
    is self time over it, and what no span covers is
    ``trace.unattributed_share``.  ``self_s`` and ``calls`` are per pass,
    because how many passes fit in a run depends on the machine, and
    ``self_s`` is divided by the machine's ``slowness`` over those passes.
    """
    spans = list(spans)
    totals = self_times(spans)
    timed = [span for span in spans if span.name not in UNTIMED]
    row: Dict[str, float] = {}
    for layer in layers:
        seconds, calls = totals.get(layer, (0.0, 0))
        row[f"{layer}.self_s"] = seconds / passes / slowness
        row[f"{layer}.calls"] = calls / passes
        row[f"{layer}.share"] = seconds / wall_s if wall_s else 0.0
    row["trace.unattributed_share"] = 1.0 - covered_time(timed) / wall_s if wall_s else 0.0
    row["trace.spans"] = len(spans)
    return row


def targets() -> List[Tuple[type, str, str]]:
    """(class, public method, layer) for every boundary the budget names.

    ``api.session.load`` is missing because the harness is its caller and
    opens that span itself, outside the timed wall.
    """
    from repro.api.service import OptimizerService
    from repro.core.aam import AAMTrainer, AdvantageModel
    from repro.core.batching import BatchedEpisodeRunner
    from repro.core.encoding import PlanEncoder
    from repro.core.inference import FossOptimizer
    from repro.core.planner import Planner
    from repro.engine.database import Database
    from repro.engine.remote import RemoteBackend
    from repro.rl.policy import ActorCritic

    found = [
        (OptimizerService, "optimize_sql", "api.service.sync"),
        (OptimizerService, "submit", "api.service.submit"),
        (OptimizerService, "flush", "api.service.flush"),
        (FossOptimizer, "optimize_many", "core.inference.optimize"),
        (BatchedEpisodeRunner, "run", "core.batching.run"),
        (PlanEncoder, "encode_many", "core.encoding.encode"),
        (AdvantageModel, "statevecs_lazy", "core.aam.state"),
        (AdvantageModel, "predict_scores_from_statevecs", "core.aam.head"),
        (AAMTrainer, "train", "core.aam.train"),
        (ActorCritic, "act_batch", "rl.policy.act"),
        (Planner, "update_from_episodes", "rl.ppo.update"),
    ]
    # LocalBackend inherits all of these from Database.
    for backend in (Database, RemoteBackend):
        found += [
            (backend, "sql", "sql.bind"),
            (backend, "plan", "engine.plan"),
            (backend, "plan_many", "engine.plan"),
            (backend, "plan_with_hints", "engine.hints"),
            (backend, "plan_with_hints_many", "engine.hints"),
            (backend, "execute", "engine.execute"),
            (backend, "execute_many", "engine.execute"),
        ]
    return found


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target for the duration of the block, then restore."""
    originals = []
    try:
        for cls, method, layer in targets():
            original = cls.__dict__[method]
            originals.append((cls, method, original))
            setattr(cls, method, tracer.wrap(layer, original))
        yield tracer
    finally:
        for cls, method, original in originals:
            setattr(cls, method, original)
