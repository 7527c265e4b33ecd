"""Index structures over table columns.

``SortedIndex`` supports range and point lookups via binary search and is
what the optimizer models as a B-tree; ``HashIndex`` supports point lookups
only.  Both return row-id arrays, keeping the executor vectorized.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


class SortedIndex:
    """A B-tree equivalent: column values sorted with their row ids."""

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        self.order = np.argsort(values, kind="stable")
        self.sorted_values = values[self.order]
        self.num_rows = len(values)

    def lookup_eq(self, key) -> np.ndarray:
        """Row ids whose value equals ``key``."""
        lo = np.searchsorted(self.sorted_values, key, side="left")
        hi = np.searchsorted(self.sorted_values, key, side="right")
        return self.order[lo:hi]

    def lookup_range(self, low=None, high=None, low_inclusive: bool = True, high_inclusive: bool = True) -> np.ndarray:
        """Row ids with value in the given (optionally open) range."""
        lo = 0
        hi = self.num_rows
        if low is not None:
            lo = np.searchsorted(self.sorted_values, low, side="left" if low_inclusive else "right")
        if high is not None:
            hi = np.searchsorted(self.sorted_values, high, side="right" if high_inclusive else "left")
        return self.order[lo:hi]

    def lookup_in(self, keys: np.ndarray) -> np.ndarray:
        """Row ids whose value is one of ``keys``."""
        parts = [self.lookup_eq(key) for key in np.unique(np.asarray(keys))]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def lookup_batch(self, keys: np.ndarray) -> tuple:
        """For each key, matching row ids; returns (probe_idx, row_ids).

        This is the vectorized index-nested-loop primitive: ``probe_idx[i]``
        tells which probe key produced ``row_ids[i]``.
        """
        keys = np.asarray(keys)
        lo = np.searchsorted(self.sorted_values, keys, side="left")
        hi = np.searchsorted(self.sorted_values, keys, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        probe_idx = np.repeat(np.arange(len(keys)), counts)
        # Build per-key ranges into the sorted order array.
        offsets = np.concatenate(([0], np.cumsum(counts)))
        positions = np.arange(total) - np.repeat(offsets[:-1], counts) + np.repeat(lo, counts)
        return probe_idx, self.order[positions]


class HashIndex:
    """Point-lookup index backed by a Python dict of key -> row ids."""

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        order = np.argsort(values, kind="stable")
        sorted_vals = values[order]
        boundaries = np.flatnonzero(np.diff(sorted_vals)) + 1
        groups = np.split(order, boundaries)
        keys = sorted_vals[np.concatenate(([0], boundaries))] if len(values) else []
        self._buckets: Dict[object, np.ndarray] = {
            key.item() if hasattr(key, "item") else key: group for key, group in zip(keys, groups)
        }
        self.num_rows = len(values)

    def lookup_eq(self, key) -> np.ndarray:
        return self._buckets.get(key, np.empty(0, dtype=np.int64))
