"""Typed, labeled metrics: ``Counter`` / ``Gauge`` / ``Histogram`` in a registry.

The metric model is deliberately Prometheus-shaped — a metric has a name,
a type, a help string and a tuple of label *names*; each distinct
combination of label *values* is one child series — because that is what
the exporters (:mod:`repro.obs.export`) render and what every downstream
scraper understands.  Everything is stdlib + numpy.

Concurrency: each metric carries its own ``threading.Lock`` guarding its
children and their values; the registry lock only guards the name →
metric table.  No metric method ever performs a blocking call (no I/O, no
waits) while holding a lock, so the serving layer can update metrics from
under its own locks without ordering hazards — the discipline
``tests/test_invariants.py::test_lock_blocking`` holds.  ``remove`` never
waits for the metric lock at all, so a ``weakref.finalize`` callback may
drop the series of a collected owner from wherever the collector runs it.

The :class:`Histogram` is two structures in one update:

* fixed upper-bound **buckets** plus running sum/count — the cheap,
  constant-memory shape exporters want;
* a bounded **ring buffer** of the most recent observations, for exact
  percentile queries over a sliding window.  This replaces the serving
  layer's old per-request ``list.append`` + slice-trim windows, which
  re-allocated the window repeatedly under load; the ring is one
  ``array('d')`` allocated once and overwritten in place forever after.

An observation is a bisect and three scalar writes, all pure Python: the
bounds are a tuple searched with ``bisect_left`` outside the lock (NaN
goes to the ``+Inf`` slot, as ``np.searchsorted`` would put it), and the
counts live in a list.  A warm serving request costs a few microseconds,
so one numpy call per observation would be most of it.  numpy comes in
on the read side only: ``bucket_counts``, ``window_values`` and the
percentiles.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = [
    "DEFAULT_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram upper bounds, in milliseconds: spans sub-millisecond
#: cache hits through multi-second cold optimizations.
DEFAULT_BUCKETS_MS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

#: Default ring-buffer window for percentile queries (matches the serving
#: layer's historical ``_LATENCY_WINDOW``).
DEFAULT_WINDOW = 10_000

_INF = float("inf")


class _Metric:
    """Shared shell: name/help/labelnames, children table, per-metric lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Tuple[str, ...] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        # Keys queued by remove() that wait for the lock to be dropped.
        self._removed: List[Tuple[str, ...]] = []

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _key(self, labelvalues: Dict[str, object]) -> Tuple[str, ...]:
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        return tuple(str(labelvalues[name]) for name in self.labelnames)

    def _drop_removed(self) -> None:
        # Caller holds _lock.
        while self._removed:
            self._children.pop(self._removed.pop(), None)

    def remove(self, **labelvalues) -> None:
        """Drop the child series for one combination of label values.

        Safe from a ``weakref.finalize`` callback, which the collector may
        run on a thread that already holds this metric's lock: the key is
        queued without blocking and dropped now if the lock is free, else
        by the next ``labels`` or ``series`` call, so no read sees it.
        """
        self._removed.append(self._key(labelvalues))
        if self._lock.acquire(blocking=False):
            try:
                self._drop_removed()
            finally:
                self._lock.release()

    def labels(self, **labelvalues):
        """The child series for one combination of label values."""
        key = self._key(labelvalues)
        with self._lock:
            self._drop_removed()
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _default(self):
        """The single unlabeled child (only for metrics with no labelnames)."""
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} is labeled by {self.labelnames}; "
                f"call .labels(...) first"
            )
        return self.labels()

    def series(self) -> List[Tuple[Dict[str, str], object]]:
        """``(labels dict, child)`` pairs — a stable snapshot for exporters."""
        with self._lock:
            self._drop_removed()
            items = list(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), child) for key, child in items
        ]


class _CounterChild:
    __slots__ = ("_lock", "_value", "_fn")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge to decrease")
        if not amount < _INF:  # NaN or +inf would stick to the series for good
            raise ValueError(f"counter increments must be finite, got {amount!r}")
        with self._lock:
            self._value += amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Read ``fn()`` at read time instead of the stored count.

        For a count its owner already keeps under a lock of its own, so
        the hot path pays for one tally, not two.  ``fn`` must never
        decrease; it runs *outside* the metric lock.
        """
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        return float(fn())


class Counter(_Metric):
    """A monotonically increasing count (requests, errors, cache hits)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value


class _GaugeChild:
    __slots__ = ("_lock", "_value", "_fn")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Evaluate ``fn`` at read time instead of storing a value.

        The callback runs *outside* the metric lock (it may take other
        locks of its own, e.g. a backend snapshotting a cache size).
        """
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        return float(fn())


class Gauge(_Metric):
    """A value that goes up and down (queue depth, cache size)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._default().set_function(fn)

    @property
    def value(self) -> float:
        return self._default().value


class _HistogramChild:
    __slots__ = ("_lock", "_uppers", "_counts", "_sum", "_count", "_ring", "_window")

    def __init__(self, lock: threading.Lock, uppers: Tuple[float, ...], window: int) -> None:
        self._lock = lock
        self._uppers = uppers
        # One slot per bucket plus the +Inf overflow slot.
        self._counts = [0] * (len(uppers) + 1)
        self._sum = 0.0
        self._count = 0
        # Allocated once; observations overwrite in place (never grows).
        self._ring = array("d", [0.0]) * window
        self._window = window

    def observe(self, value: float) -> None:
        value = float(value)
        # bisect sees NaN below every bound; searchsorted put it past them.
        slot = bisect_left(self._uppers, value) if value == value else len(self._uppers)
        with self._lock:
            self._counts[slot] += 1
            self._sum += value
            if self._window:
                self._ring[self._count % self._window] = value
            self._count += 1

    # -- reads ----------------------------------------------------------
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> np.ndarray:
        """Per-bucket counts (last slot is +Inf), as a copy."""
        with self._lock:
            return np.array(self._counts, dtype=np.int64)

    def window_values(self) -> np.ndarray:
        """The retained observation window (a copy, unordered multiset)."""
        with self._lock:
            filled = min(self._count, self._window)
            return np.frombuffer(self._ring, dtype=np.float64, count=filled).copy()

    def window_nbytes(self) -> int:
        """Fixed allocation size of the window buffer (regression guard)."""
        return self._window * self._ring.itemsize

    def percentile(self, pct: float) -> float:
        values = self.window_values()
        return float(np.percentile(values, pct)) if values.size else 0.0

    def mean(self) -> float:
        values = self.window_values()
        return float(values.mean()) if values.size else 0.0


class Histogram(_Metric):
    """Fixed-bucket distribution + bounded window for exact percentiles."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Tuple[str, ...] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS_MS,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        super().__init__(name, help, labelnames)
        uppers = tuple(sorted(float(b) for b in buckets))
        if not uppers:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        if window < 0:
            raise ValueError(f"histogram {name!r} window must be >= 0")
        self.buckets = uppers
        self.window = int(window)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self._lock, self.buckets, self.window)

    # Unlabeled convenience surface, mirroring the child's reads.
    def observe(self, value: float) -> None:
        self._default().observe(value)

    @property
    def count(self) -> int:
        return self._default().count

    @property
    def sum(self) -> float:
        return self._default().sum

    def bucket_counts(self) -> np.ndarray:
        return self._default().bucket_counts()

    def window_values(self) -> np.ndarray:
        return self._default().window_values()

    def window_nbytes(self) -> int:
        return self._default().window_nbytes()

    def percentile(self, pct: float) -> float:
        return self._default().percentile(pct)

    def mean(self) -> float:
        return self._default().mean()


class MetricsRegistry:
    """Name → metric table; the one place exporters walk.

    ``counter``/``gauge``/``histogram`` are get-or-create: re-declaring an
    existing name returns the existing metric when the declaration agrees
    (same type and labelnames) and raises when it does not — two
    subsystems silently sharing one name with different shapes is a bug.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs) -> _Metric:
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}; "
                        f"cannot re-declare as {cls.kind} with {labelnames}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames=()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames=(),
        buckets: Iterable[float] = DEFAULT_BUCKETS_MS,
        window: int = DEFAULT_WINDOW,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets, window=window
        )

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> List[_Metric]:
        """All registered metrics, sorted by name (exporter order)."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """A JSON-friendly dump of every metric and series."""
        out: Dict = {}
        for metric in self.metrics():
            series = []
            for labels, child in metric.series():
                entry: Dict = {"labels": labels}
                if metric.kind == "histogram":
                    entry["count"] = int(child.count)
                    entry["sum"] = float(child.sum)
                    entry["buckets"] = {
                        str(upper): int(count)
                        for upper, count in zip(
                            metric.buckets, child.bucket_counts().tolist()
                        )
                    }
                    entry["p50"] = child.percentile(50)
                    entry["p95"] = child.percentile(95)
                    entry["p99"] = child.percentile(99)
                else:
                    entry["value"] = float(child.value)
                series.append(entry)
            out[metric.name] = {
                "type": metric.kind,
                "help": metric.help,
                "series": series,
            }
        return out
