"""Vectorized equi-join primitives: count the matches, expand pairs only on demand.

A join here is between *left* entries (the groups of an intermediate) and the
*right* entries of one scanned table.  Both sides are reduced to **ranks** over
the distinct key values of the right side — :func:`rank_keys` for one key
column, :func:`refine_keys` for each further column of a multi-predicate join —
after which the number of right entries matching a left entry is one gather
(:func:`match_counts`).  Only the scanned side is ever sorted, and no
(left, right) pair exists unless :func:`expand_pairs` is asked for them.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

Ranks = Tuple[np.ndarray, np.ndarray, np.ndarray]


def rank_keys(left_keys: np.ndarray, right_keys: np.ndarray) -> Ranks:
    """Rank both sides over the distinct values of ``right_keys``.

    Returns ``(left_rank, right_rank, counts)``: ``counts[r]`` right entries
    hold the ``r``-th distinct value, ``right_rank[j]`` is the rank of right
    entry ``j`` and ``left_rank[i]`` the rank of left entry ``i`` — ``-1`` when
    its value does not occur on the right.  Entries match iff their ranks are
    equal.
    """
    distinct, right_rank, counts = np.unique(right_keys, return_inverse=True, return_counts=True)
    if len(distinct) == 0:
        return np.full(len(left_keys), -1, dtype=np.int64), right_rank, counts
    slot = np.searchsorted(distinct, left_keys)
    slot[slot == len(distinct)] = 0  # past the end: any slot fails the equality below
    return np.where(distinct[slot] == left_keys, slot, -1), right_rank, counts


def refine_keys(ranks: Ranks, left_keys: np.ndarray, right_keys: np.ndarray) -> Ranks:
    """Ranks over ``ranks``' key *and* one more key column.

    The two ranks are packed into one integer and ranked again, so a packed
    key never exceeds ``len(right)**2`` however many columns are added.
    """
    left_rank, right_rank, _ = ranks
    left_next, right_next, next_counts = rank_keys(left_keys, right_keys)
    width = len(next_counts)
    matched = (left_rank >= 0) & (left_next >= 0)
    packed_left = np.where(matched, left_rank * width + left_next, -1)
    return rank_keys(packed_left, right_rank * width + right_next)


def match_counts(ranks: Ranks) -> np.ndarray:
    """Number of right entries matching each left entry (0 for rank ``-1``)."""
    left_rank, _, counts = ranks
    return np.append(counts, 0)[left_rank]


def expand_pairs(ranks: Ranks) -> Tuple[np.ndarray, np.ndarray]:
    """All index pairs ``(i, j)`` with ``left_rank[i] == right_rank[j]``.

    Pairs are grouped by left entry, right entries in their original order.
    """
    left_rank, right_rank, counts = ranks
    matched = np.flatnonzero(left_rank >= 0)
    rank = left_rank[matched]
    fanout = counts[rank]
    right_order = np.argsort(right_rank, kind="stable")
    first = np.cumsum(counts) - counts  # where each rank starts in right_order
    written = np.cumsum(fanout)
    total = int(written[-1]) if len(written) else 0
    position = np.arange(total) + np.repeat(first[rank] - (written - fanout), fanout)
    return np.repeat(matched, fanout), right_order[position]
