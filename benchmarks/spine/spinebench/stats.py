"""Order statistics for timings: the tail rule, quartiles, spreads (stdlib only)."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

TAIL_SAMPLES = 10  # a percentile is reported only with this many samples beyond it


def supported_percentile(count: int) -> int:
    """The highest whole percentile with ``TAIL_SAMPLES`` samples beyond it.

    0 when even the median is not supported.  A run stamps this next to
    every latency metric so a reader can tell a p95 over 226 samples
    (11 beyond) from one over 60 (3 beyond, not a measurement).
    """
    if count <= 0:
        return 0
    return max(0, min(99, math.floor(100.0 * (1.0 - TAIL_SAMPLES / count))))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the pipeline's rule)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf
