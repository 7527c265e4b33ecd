"""How slow is the machine right now?

The box this benchmark was built on is a shared 2-vCPU VM whose speed
moves with its neighbours: the same pure-Python loop takes 0.175 s one
second and 0.27 s a few seconds later (CPU time moves with it, so the
guest cannot see why), and the slow stretches last from a fraction of a
second to a quarter of an hour.  Raw timings of one tree therefore
spread 13-19 % between half-second windows of one run and 25-55 %
between runs, and no bound the pipeline allows (25 % at most) survives
that.  So every timing is *scaled*: a :class:`Sampler` thread times a
fixed 0.9 ms piece of interpreter work every 20 ms for the whole run, and
a timed stretch is divided by the mean of the samples that fell inside
it, over what the same piece takes on this box when quiet.  Scaled
timings read as if taken on this box when quiet; across windows of one
run they spread 3-4 %.

What makes that legitimate: a change under ``src/`` cannot move a
sample, and a busy neighbour moves sample and timed stretch alike
(prototype: 1.9 ms expert-DP plannings against interleaved samples,
ratio spread 3 % over 3 s windows where the raw time spread 12 %; the
same for a loop of small numpy kernels).  Readings taken only before and
after a stretch do not work — over 3 s the machine has changed speed
twice — and neither does numpy work in the sample, which waits for the
GIL after every kernel and so times the benchmark's own thread.  The
sampler costs the measured thread the GIL for 0.9 ms in every 20, the
same on every commit.  Raw walls stay in every run's stamp.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Sequence

import numpy as np

#: Seconds per :func:`unit` on the reference box when quiet.  Only sets
#: the scale: every scaled timing reads as if taken there.
NOMINAL_UNIT_S = 0.00090
PERIOD_S = 0.020
#: A stretch shorter than this is scaled by the samples of this much time
#: around its middle, so that a 0.3 ms request is not scaled by no sample
#: or by one.
MIN_WINDOW_S = 0.5


def unit() -> None:
    """About 0.9 ms of dict and int work.  It never releases the GIL, so a
    sample times the machine and not another thread's turn, and it makes
    no object the cycle collector tracks, so a sample does not set off a
    collection of the benchmark's heap and time that."""
    table = {}
    for i in range(6000):
        key = (i % 97) * 89 + i % 89
        table[key] = table.get(key, 0) + i


class Sampler:
    """Times :func:`unit` every ``PERIOD_S`` on a thread of its own."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._at: List[float] = []  # list.append is atomic under the GIL
        self._took: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="spine-probe")

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = self.clock()
            unit()
            self._took.append(self.clock() - start)  # before _at: see slowness()
            self._at.append(start)

    def readings(self) -> np.ndarray:
        """Every sample so far, over nominal."""
        return np.asarray(self._took, dtype=float) / NOMINAL_UNIT_S

    def slowness(self, starts: Sequence[float], ends: Sequence[float]) -> np.ndarray:
        """Per stretch ``[start, end]``: mean sample over nominal — 1.0 on the
        quiet reference box, 1.3 when everything takes 30 % longer."""
        return slowness(self._at, self._took, starts, ends)


def slowness(
    at: Sequence[float], took: Sequence[float], starts: Sequence[float], ends: Sequence[float]
) -> np.ndarray:
    """The arithmetic of :meth:`Sampler.slowness` on explicit samples.

    A stretch is widened to ``MIN_WINDOW_S`` about its middle; one that
    still holds no sample (before the first, after the last) takes the
    nearest.
    """
    at = np.asarray(at, dtype=float)  # copied first: a live sampler has a ``took`` for each
    took = np.asarray(took, dtype=float)[: len(at)]
    starts, ends = np.asarray(starts, dtype=float), np.asarray(ends, dtype=float)
    if not len(at):
        raise ValueError("no sample of the machine's speed yet")
    pad = np.maximum(0.0, (MIN_WINDOW_S - (ends - starts)) / 2.0)
    first = np.searchsorted(at, starts - pad, side="left")
    last = np.searchsorted(at, ends + pad, side="right")
    empty = last <= first
    first = np.where(empty, np.clip(first - 1, 0, len(at) - 1), first)
    last = np.where(empty, first + 1, last)
    total = np.concatenate([[0.0], np.cumsum(took)])
    return (total[last] - total[first]) / (last - first) / NOMINAL_UNIT_S
