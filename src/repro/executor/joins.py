"""Vectorized equi-join primitives: count the matches, expand pairs only on demand.

A join here is between *left* entries (the groups of an intermediate) and the
*right* entries of one scanned table.  Both sides are reduced to **ranks** over
the distinct key values of the right side — :func:`rank_keys` for one key
column, :func:`refine_keys` for each further column of a multi-predicate join —
after which the number of right entries matching a left entry is one gather
(:func:`match_counts`).  Only the scanned side is ever sorted.

A left key column is a table column read through the entries' row ids.  A
group set can hold many more entries than its table has rows (each row id
repeated across the combinations it joined), so whichever is shorter is
searched against the right side: the table's rows, whose ranks are then
gathered by row id, or the entries' gathered values.  A rank depends on the
value alone, so both give the same ranks.

No (left, right) pair exists unless asked for (:func:`pair_rows`,
:func:`expand_pairs`), which the engine does only when a later operator reads
the scanned alias *and* some alias below it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

Ranks = Tuple[np.ndarray, np.ndarray, np.ndarray]


def rank_keys(left_keys: np.ndarray, right_keys: np.ndarray, left_rows: Optional[np.ndarray] = None) -> Ranks:
    """Rank both sides over the distinct values of ``right_keys``.

    Returns ``(left_rank, right_rank, counts)``: ``counts[r]`` right entries
    hold the ``r``-th distinct value, ``right_rank[j]`` is the rank of right
    entry ``j`` and ``left_rank[i]`` the rank of left entry ``i`` — ``-1`` when
    its value does not occur on the right.  Entries match iff their ranks are
    equal.

    With ``left_rows``, left entry ``i`` holds ``left_keys[left_rows[i]]``
    (``left_keys`` a table column, ``left_rows`` row ids, repeats allowed), and
    only the shorter of the two is searched.
    """
    if left_rows is not None and len(left_rows) <= len(left_keys):
        left_keys, left_rows = left_keys[left_rows], None
    distinct, right_rank, counts = np.unique(right_keys, return_inverse=True, return_counts=True)
    if len(distinct) == 0:
        entries = len(left_keys) if left_rows is None else len(left_rows)
        return np.full(entries, -1, dtype=np.int64), right_rank, counts
    slot = np.searchsorted(distinct, left_keys)
    slot[slot == len(distinct)] = 0  # past the end: any slot fails the equality below
    left_rank = np.where(distinct[slot] == left_keys, slot, -1)
    if left_rows is not None:
        left_rank = left_rank[left_rows]
    return left_rank, right_rank, counts


def refine_keys(
    ranks: Ranks, left_keys: np.ndarray, right_keys: np.ndarray, left_rows: Optional[np.ndarray] = None
) -> Ranks:
    """Ranks over ``ranks``' key *and* one more key column (``left_rows`` as in
    :func:`rank_keys`).

    The two ranks are packed into one integer and ranked again, so a packed
    key never exceeds ``len(right)**2`` however many columns are added.
    """
    left_rank, right_rank, _ = ranks
    left_next, right_next, next_counts = rank_keys(left_keys, right_keys, left_rows)
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
    matches = match_counts(ranks)
    return np.repeat(np.arange(len(matches)), matches), pair_rows(ranks, matches)


def pair_rows(ranks: Ranks, matches: np.ndarray) -> np.ndarray:
    """The right entry of every pair of :func:`expand_pairs`, given
    ``matches = match_counts(ranks)``; left entry ``i`` owns ``matches[i]``
    consecutive pairs, so its columns expand with ``np.repeat(column, matches)``.
    """
    left_rank, right_rank, counts = ranks
    written = np.cumsum(matches)
    total = int(written[-1]) if len(written) else 0
    # Pair p (over all pairs) of entry i is the right entry at position
    # first[rank] + p - (written[i] - matches[i]) of the rank-sorted right side.
    first = np.append(np.cumsum(counts) - counts, 0)  # rank -1 reads the 0 and owns no pair
    position = np.repeat(first[left_rank] - written + matches, matches)
    position += np.arange(total)
    if np.any(right_rank[1:] < right_rank[:-1]):  # else the sort is the identity
        position = np.argsort(right_rank, kind="stable")[position]
    return position
