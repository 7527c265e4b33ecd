"""Selinger-style dynamic-programming plan enumeration (left-deep).

The enumerator explores connected subsets of the query's join graph and, for
each expansion, all join methods, keeping the cheapest plan per subset.  It
supports the constraints the baselines need: disabling join methods (Bao's
hint sets) and forcing a leading join-order prefix (HybridQO's hints).

Join space
----------
Everything the search derives from (query, statistics, indexes) is computed
once into an immutable :class:`JoinSpace` and never again per expansion.
:class:`~repro.engine.database.Database` keeps one space per query per
engine, shared by expert planning, hint completion and the constructive
baselines and dropped with its plan cache; :meth:`PlanEnumerator.optimize`
builds a fresh one per call.  A space holds:

* aliases are numbered in **alias-name order** (``names[i]``, bit ``1 << i``),
  so a set of aliases is an ``int`` mask and walking a mask's bits low to
  high visits aliases sorted by name; ``query_order`` keeps the query's own
  alias order for the places that iterate it;
* per alias: the ``best_scan`` access path with its rows, cost and
  ``sort(rows)``,
  the ``index_descent`` of an index nested loop probing its base table, and
  the mask of join-graph neighbours;
* per alias: its join predicates in ``query.join_predicates`` order, each as
  ``(other-side bit, predicate, selectivity, inner-index usable)``.

One expansion primitive serves the DP, the greedy fallback, hint completion
(:meth:`JoinSpace.complete`, the `pg_hint_plan` equivalent) and the
constructive baselines: :meth:`JoinSpace.candidates` (who may join next; the
greedy fallback ranks :meth:`JoinSpace.reach` in query order instead),
:meth:`JoinSpace.extend` (output rows of one join) and
:meth:`JoinSpace.join_cost` (the operator's cost), which
:meth:`JoinSpace.join` adds up for hint completion and the baselines.  Every
search ends in one :class:`~repro.optimizer.plans.Plan` record
(:meth:`JoinSpace.assemble`); the constructive baselines grow a
:class:`Prefix` one join at a time (:meth:`JoinSpace.grow`).

Ordering rules
--------------
The expert's plans key every cache and seed every learned search, so they
must not move by one ulp or one tie-break.  Plans are a pure function of
(query, options) because:

* selectivities are multiplied in predicate order and rows are
  ``max(1, left * right * selectivity)``; a join's cost is
  ``(left cost + scan cost) + operator cost``, in that association;
* the DP visits subsets in discovery order (``dict`` insertion order, first
  level in query order), candidates in alias-name order (cross-join
  fallback: query order) and methods in ``JOIN_METHODS`` order, and replaces
  an incumbent only on a strictly smaller cost;
* nothing iterates a ``set`` or hashes a string, so ``PYTHONHASHSEED`` is
  irrelevant.

Level arrays
------------
From :data:`ARRAY_DP_MIN_TABLES` aliases up, the DP evaluates one level at
a time as numpy arrays over all of the level's (left subset, joining alias)
pairs; smaller queries run the scalar loop.  A level costs the array step
≈ 80 µs on a skeleton hit and ≈ 190 µs on a miss (below) however few
pairs it has, so the threshold sits where the loop and the arrays cross.
Per JOB query at scale 0.04 (thread time, median of 7 per query, median
over the queries of a size; 2-vCPU x86-64, numpy 2.4):

=======  =======  =======  =======  =======  =======  =======  =======
tables   4        6        7        8        9        11       15
scalar   0.07 ms  0.21 ms  0.42 ms  1.15 ms  1.85 ms  5.8 ms   103 ms
miss     0.57 ms  0.87 ms  1.04 ms  1.27 ms  1.71 ms  2.4 ms   10.0 ms
hit      0.25 ms  0.41 ms  0.49 ms  0.59 ms  0.74 ms  1.1 ms   5.2 ms
=======  =======  =======  =======  =======  =======  =======  =======

At 8 tables a hit beats the loop and a miss does not, so the threshold
stays at 9.  (The same box ran the unchanged scalar loop at 0.67 ms and
56 ms for 8 and 15 tables when the table was first taken: compare within
a column only.)  No Stack query has more than 6 tables, so Stack stays
on the scalar loop.  The same rules hold on both paths, step for step:

* pairs come from ``np.nonzero`` of ``reach & ~mask`` tested against the
  alias bits: row-major, so subsets in level order and aliases in name
  order; a subset with nothing joinable tests its remaining aliases in
  query order instead;
* each pair's selectivity is a segment of factors, its alias's predicates
  in ``joins[i]`` order with a missed one as ``1.0`` (which never rounds),
  folded left to right by ``np.multiply.reduceat`` (numpy reduces only
  ``add`` pairwise; ``tests/test_optimizer.py`` pins the fold); rows are
  ``where(p > 1, p, 1)``, which is what ``max(1, p)`` returns;
* operator costs are the same ``CostModel`` methods called on arrays; the
  hash build side is ``np.minimum`` of the inputs, ``min(plain, index)``
  is ``where(index < plain, index, plain)``; logarithms stay scalar
  (``sort`` once per subset, ``index_descent`` once per alias), because
  ``np.log2`` may round differently from ``math.log2``;
* a pair keeps the first method whose total is strictly smaller
  (``JOIN_METHODS`` order); pairs are grouped by subset with a stable sort,
  so a subset keeps its first minimum in discovery order, and the next
  level is kept in first-discovery order;
* float64 arithmetic is IEEE like Python's, overflow gives ``inf`` (numpy's
  warning is silenced, as Python never warns), and only the winning chain
  becomes a plan, its rows re-derived by :meth:`JoinSpace.extend`.

``tests/reference_dp.py`` keeps the previous frozenset implementation as the
oracle these rules are checked against, ``float.hex`` for ``float.hex``, on
both paths.

The level arrays come in two parts.  The skeleton (:func:`_skeleton`) is
what the join graph alone decides: per level, the (left position, alias)
pairs stable-sorted by the subset they make, each pair's predicate
entries and index usability, each subset's first pair and pair count,
and the subsets in first-discovery order.  It holds arrays and ints only,
never a ``Query``, ``JoinSpace`` or ``Database``, so a memo of skeletons
keeps no engine alive.  The evaluation (:meth:`PlanEnumerator._level_arrays`)
runs one query's estimates over it: the selectivity fold, rows, the three
method costs, each subset's first minimum and the winners.  A built and a
read skeleton go through the same evaluation, so plans cannot tell them
apart.

* Key: the query order and the predicate layout (per alias, each
  predicate's other-side bit and index flag, in ``joins[i]`` order).  The
  neighbour masks follow from the layout, and alias names decide nothing
  but the numbering, which the layout already carries.
* Lifetime: the enumerator's ``skeletons`` memo, which
  :class:`~repro.engine.database.Database` owns and empties in
  ``clear_plan_cache`` and ``clear_caches``: one skeleton per join graph
  per cache epoch.  An enumerator built without one builds every time.
* Prefixes: only prefix-free skeletons are kept.  A leading prefix
  (HybridQO draws several per query) builds its skeleton and drops it: the
  plan cache answers a repeated (query, prefix), so only a sibling drawing
  the same prefix could read a kept one, while keeping each would evict
  the prefix-free skeletons every expert plan reads.
* Bound and bytes: 32 skeletons, about twice JOB's 15 graphs, which take
  2.3 MB at scale 0.04 (64,086 pairs).  Arrays that index a gather stay
  ``intp`` (an ``int32`` index costs a cast per gather, 3–7 % of a hit);
  ``reduceat`` and ``searchsorted`` arguments are ``int32``.  The worst
  case is a dense graph: a 15-alias clique with one predicate per pair
  has 245,745 pairs and takes 33.2 MB, each further predicate per pair
  27.5 MB more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.optimizer.cardinality import MIN_ROWS, CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.plans import JOIN_METHODS, Plan
from repro.sql.ast import JoinPredicate, Query

IndexOracle = Callable[[str, str], bool]

# Predicate ops an index scan can serve.
_INDEXABLE_OPS = ("=", "IN", "BETWEEN", "<", "<=", ">", ">=")

# Queries with at least this many aliases run the DP as level arrays (the
# crossover table is in the module docstring, "Level arrays").
ARRAY_DP_MIN_TABLES = 9


class HintError(ValueError):
    """Raised when a hint does not describe a valid plan for the query."""


@dataclass
class OptimizerOptions:
    """Search-space restrictions (used directly by Bao/HybridQO baselines)."""

    disabled_methods: FrozenSet[str] = frozenset()
    leading_prefix: Tuple[str, ...] = ()
    max_dp_tables: int = 15

    def signature(self) -> str:
        """Stable identity for plan caching."""
        return f"dis={','.join(sorted(self.disabled_methods))}|pre={','.join(self.leading_prefix)}|dp={self.max_dp_tables}"

    def allowed_methods(self) -> Tuple[str, ...]:
        allowed = tuple(m for m in JOIN_METHODS if m not in self.disabled_methods)
        if not allowed:
            raise ValueError("all join methods disabled")
        return allowed


class Prefix(NamedTuple):
    """A left-deep plan over some of a space's aliases: a
    :class:`~repro.optimizer.plans.Plan`'s six tuples without the query it
    does not yet cover, grown by :meth:`JoinSpace.grow`."""

    aliases: Tuple[str, ...]
    methods: Tuple[str, ...]
    scan_types: Tuple[str, ...]
    index_columns: Tuple[Optional[str], ...]
    est_rows: Tuple[float, ...]
    est_costs: Tuple[float, ...]


class JoinSpace:
    """One query's join search space, precomputed (see the module docstring).

    Aliases are addressed by index into :attr:`names`; sets of aliases are
    bit masks over those indexes.  Immutable after construction.
    """

    def __init__(self, enumerator: "PlanEnumerator", query: Query) -> None:
        estimator, cost_model = enumerator.estimator, enumerator.cost_model
        self.query = query
        self.cost_model = cost_model
        self.aliases: List[str] = list(query.tables)
        self.names: List[str] = sorted(self.aliases)
        self.index: Dict[str, int] = {alias: i for i, alias in enumerate(self.names)}
        self.query_order: List[int] = [self.index[alias] for alias in self.aliases]
        self.full = (1 << len(self.names)) - 1
        # Per alias: its best_scan's scan type, index column, rows and cost.
        self.scan_types, self.index_columns, self.rows, self.costs = map(
            list, zip(*(enumerator.best_scan(query, alias) for alias in self.names))
        )
        self.sort_costs: List[float] = [cost_model.sort(rows) for rows in self.rows]
        self.descents: List[float] = [
            cost_model.index_descent(estimator.base_rows(query.tables[alias]))
            for alias in self.names
        ]
        self.neighbors: List[int] = [0] * len(self.names)
        self.joins: List[List[Tuple[int, JoinPredicate, float, bool]]] = [[] for _ in self.names]
        for predicate in query.join_predicates:
            selectivity = estimator.join_selectivity(query, predicate)
            for ref, other in ((predicate.left, predicate.right), (predicate.right, predicate.left)):
                i, other_bit = self.index[ref.alias], 1 << self.index[other.alias]
                self.neighbors[i] |= other_bit
                indexed = enumerator.has_index(query.tables[ref.alias], ref.column)
                self.joins[i].append((other_bit, predicate, selectivity, indexed))

    def mask(self, aliases: Sequence[str]) -> int:
        mask = 0
        for alias in aliases:
            mask |= 1 << self.index[alias]
        return mask

    def reach(self, mask: int) -> int:
        """Union of the neighbour masks of ``mask``'s members."""
        reach = 0
        for i, neighbors in enumerate(self.neighbors):
            if mask >> i & 1:
                reach |= neighbors
        return reach

    def candidates(self, mask: int, reach: Optional[int] = None) -> List[int]:
        """Aliases that may be joined to ``mask`` next.

        Join-graph neighbours in alias-name order; when none is left (only
        hinted plans reach a disconnected remainder — bound queries are
        connected) every remaining alias, in query order, as a cross join.
        ``reach`` is ``self.reach(mask)`` for callers that carry it along.
        """
        joinable = (self.reach(mask) if reach is None else reach) & ~mask
        if not joinable:
            return [i for i in self.query_order if not mask >> i & 1]
        found = []
        while joinable:
            low = joinable & -joinable
            found.append(low.bit_length() - 1)
            joinable ^= low
        return found

    def extend(self, left_rows: float, mask: int, i: int) -> Tuple[float, bool]:
        """Join alias ``i`` onto a ``left_rows``-row plan over ``mask``.

        Returns the estimated output rows, and whether one of the predicates
        linking the two sides (the join's predicates, in query order) can
        drive an index nested loop into ``i``.
        """
        selectivity = 1.0
        index_usable = False
        for other_bit, _, predicate_selectivity, indexed in self.joins[i]:
            if other_bit & mask:
                selectivity *= predicate_selectivity
                index_usable = index_usable or indexed
        return max(MIN_ROWS, left_rows * self.rows[i] * selectivity), index_usable

    def join_cost(
        self,
        method: str,
        left_rows: float,
        i: int,
        out_rows: float,
        index_usable: bool,
        left_sort: Optional[float] = None,
    ) -> float:
        """Cost of the join operator itself (children excluded).

        ``left_sort`` is ``cost_model.sort(left_rows)`` for callers that cost
        many joins onto one left side.
        """
        cost_model = self.cost_model
        right_rows = self.rows[i]
        if method == "hash":
            # Build on the smaller input, as the executor does.
            if right_rows <= left_rows:
                return cost_model.hash_join(right_rows, left_rows, out_rows)
            return cost_model.hash_join(left_rows, right_rows, out_rows)
        if method == "merge":
            if left_sort is None:
                left_sort = cost_model.sort(left_rows)
            merge = cost_model.merge_join(left_rows, right_rows, out_rows, True, True)
            return merge + left_sort + self.sort_costs[i]
        if method == "nestloop":
            plain = cost_model.nested_loop(left_rows, right_rows, out_rows)
            if index_usable:
                return min(
                    plain, cost_model.index_probe_loop(left_rows, self.descents[i], out_rows)
                )
            return plain
        raise ValueError(f"unknown join method {method!r}")

    def assemble(
        self,
        order: Sequence[int],
        methods: Sequence[str],
        rows: Sequence[float],
        costs: Sequence[float],
    ) -> Plan:
        """The plan joining aliases ``order`` (indexes) left to right by
        ``methods``; ``rows`` and ``costs`` are the joins' estimates,
        bottom-up, after the leaves' own."""
        return Plan(
            self.query,
            tuple([self.names[i] for i in order]),
            tuple(methods),
            tuple([self.scan_types[i] for i in order]),
            tuple([self.index_columns[i] for i in order]),
            tuple([self.rows[i] for i in order] + list(rows)),
            tuple([self.costs[i] for i in order] + list(costs)),
        )

    def start(self, i: int) -> Prefix:
        """The one-leaf prefix scanning alias ``i``."""
        return Prefix(
            (self.names[i],), (), (self.scan_types[i],), (self.index_columns[i],),
            (self.rows[i],), (self.costs[i],),
        )

    def join(
        self, left_rows: float, left_cost: float, mask: int, i: int, method: str
    ) -> Tuple[float, float]:
        """Rows and cost of joining alias ``i`` by ``method`` onto a plan
        over ``mask`` of ``left_rows`` rows and ``left_cost`` cost."""
        out_rows, index_usable = self.extend(left_rows, mask, i)
        op_cost = self.join_cost(method, left_rows, i, out_rows, index_usable)
        return out_rows, left_cost + self.costs[i] + op_cost

    def grow(self, prefix: Prefix, mask: int, i: int, method: str) -> Prefix:
        """``prefix`` (over ``mask``) with alias ``i`` joined on by ``method``."""
        rows, cost = self.join(prefix.est_rows[-1], prefix.est_costs[-1], mask, i, method)
        leaves = len(prefix.aliases)
        return Prefix(
            prefix.aliases + (self.names[i],),
            prefix.methods + (method,),
            prefix.scan_types + (self.scan_types[i],),
            prefix.index_columns + (self.index_columns[i],),
            prefix.est_rows[:leaves] + (self.rows[i],) + prefix.est_rows[leaves:] + (rows,),
            prefix.est_costs[:leaves] + (self.costs[i],) + prefix.est_costs[leaves:] + (cost,),
        )

    def finish(self, prefix: Prefix) -> Plan:
        """The plan a prefix over every alias describes."""
        return Plan(self.query, *prefix)

    def complete(self, join_order: Sequence[str], join_methods: Sequence[str]) -> Plan:
        """``Γp(Q, ICP)``: the complete plan steered by a hint.

        ``join_order`` lists leaf aliases left-to-right (the first two form
        the deepest join); ``join_methods`` lists methods bottom-up and must
        have ``len(join_order) - 1`` entries.  The expert supplies scans and
        estimates.
        """
        if sorted(join_order) != self.names:
            raise HintError(
                f"hint order {list(join_order)} does not cover query aliases {self.aliases}"
            )
        if len(join_methods) != len(join_order) - 1:
            raise HintError(
                f"expected {len(join_order) - 1} join methods, got {len(join_methods)}"
            )
        for method in join_methods:
            if method not in JOIN_METHODS:
                raise HintError(f"unknown join method {method!r}")
        order = [self.index[alias] for alias in join_order]
        rows, costs = [self.rows[order[0]]], [self.costs[order[0]]]
        mask = 1 << order[0]
        for i, method in zip(order[1:], join_methods):
            out_rows, cost = self.join(rows[-1], costs[-1], mask, i, method)
            rows.append(out_rows)
            costs.append(cost)
            mask |= 1 << i
        return self.assemble(order, join_methods, rows[1:], costs[1:])


def _level_pairs(
    masks: np.ndarray, reach: np.ndarray, bits: np.ndarray, query_order: np.ndarray, full: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(left position, alias) of every expansion of one DP level, in order.

    The arrays form of :meth:`JoinSpace.candidates` for each subset in turn:
    neighbours in alias-name order, else every remaining alias in query
    order.
    """
    joinable = reach & ~masks
    hit = (joinable[:, None] & bits) != 0
    stranded = joinable == 0
    if not stranded.any():
        return np.nonzero(hit)
    remaining = ((full & ~masks)[:, None] & bits[query_order]) != 0
    left, column = np.nonzero(np.where(stranded[:, None], remaining, hit))
    return left, np.where(stranded[left], query_order[column], column)


class _Level(NamedTuple):
    """One DP level's expansions, grouped by the subset they make.

    Pairs are stable-sorted by subset, so within a subset they stay in
    discovery order.
    """

    left: np.ndarray  # pair -> its left subset's position in the previous level
    alias: np.ndarray  # pair -> the alias it joins
    entries: np.ndarray  # the pairs' factors as selectivity indexes, a miss the trailing 1.0
    segments: np.ndarray  # pair -> its first entry
    index_usable: np.ndarray  # pair -> an index nested loop into the alias is usable
    starts: np.ndarray  # subset -> its first pair (sorted order)
    sizes: np.ndarray  # subset -> its pair count (sorted order)
    firsts: np.ndarray  # the subsets' first pairs in first-discovery order


class _Skeleton(NamedTuple):
    """Everything of the level arrays that only the join graph decides."""

    first: np.ndarray  # the first level's aliases
    levels: Tuple[_Level, ...]


def _skeleton(space: JoinSpace, prefix: Sequence[int]) -> _Skeleton:
    """The level structure of ``space``'s join graph under a leading prefix.

    Reads only the graph of ``space`` (aliases, query order, predicate
    bits and index flags), never its estimates, and keeps only arrays.
    Masks are int64, which holds any query a DP can finish.
    """
    n = len(space.names)
    bits = np.left_shift(1, np.arange(n, dtype=np.int64))
    # Grouping sorts masks as the narrowest unsigned type that holds them
    # (radix sort up to 16 aliases).
    key_type = np.min_scalar_type(space.full)
    query_order = np.array(space.query_order)
    neighbors = np.array(space.neighbors, dtype=np.int64)
    # Every alias's predicates as slots, flat in joins[i] order from
    # offsets[i]: the other side's bit and the index of the selectivity.
    # An alias without predicates gets one slot that never hits (bit 0), so
    # every pair has a segment; a missed slot reads the 1.0 at index
    # ``miss``.  An index nested loop into i is usable when the left side
    # holds a bit of indexed_bits[i].
    slot_bits, slot_entries, counts = [], [], []
    indexed_bits = np.zeros(n, dtype=np.int64)
    entry = 0
    for i, joins in enumerate(space.joins):
        for other_bit, _, _, indexed in joins:
            slot_bits.append(other_bit)
            slot_entries.append(entry)
            entry += 1
            if indexed:
                indexed_bits[i] |= other_bit
        if not joins:
            slot_bits.append(0)
            slot_entries.append(entry)
        counts.append(max(1, len(joins)))
    miss = entry
    slot_bits, slot_entries = np.array(slot_bits, dtype=np.int64), np.array(slot_entries)
    counts = np.array(counts)
    offsets = np.cumsum(counts) - counts

    first = np.array(prefix[:1] or space.query_order)
    masks, reach = bits[first], neighbors[first]
    levels = []
    for size in range(2, n + 1):
        if size <= len(prefix):
            left = np.arange(len(masks))
            alias = np.full(len(masks), prefix[size - 1])
        else:
            left, alias = _level_pairs(masks, reach, bits, query_order, space.full)
        keys = masks[left] | bits[alias]
        order = np.argsort(keys.astype(key_type), kind="stable")
        left, alias, keys = left[order], alias[order], keys[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        # A subset's first pair in sorted order is its first discovered.
        firsts = starts[np.argsort(order[starts])]
        # One segment of factors per pair: its alias's slots, a missed one
        # as the 1.0, which never rounds.
        pair_masks = masks[left]
        pair_counts = counts[alias]
        ends = np.cumsum(pair_counts)
        segments = ends - pair_counts
        slots = np.arange(ends[-1]) + np.repeat(offsets[alias] - segments, pair_counts)
        hit = (slot_bits[slots] & np.repeat(pair_masks, pair_counts)) != 0
        entries = np.where(hit, slot_entries[slots], miss)
        levels.append(
            _Level(
                left=left,
                alias=alias,
                entries=entries,
                segments=segments.astype(np.int32),
                index_usable=(pair_masks & indexed_bits[alias]) != 0,
                starts=starts.astype(np.int32),
                sizes=np.diff(starts, append=len(keys)),
                firsts=firsts.astype(np.int32),
            )
        )
        masks = keys[firsts]
        reach = reach[left[firsts]] | neighbors[alias[firsts]]
    return _Skeleton(first=first, levels=tuple(levels))


class PlanEnumerator:
    """Cost-based left-deep plan enumeration over a query's join graph."""

    def __init__(
        self,
        estimator: CardinalityEstimator,
        cost_model: CostModel,
        index_oracle: IndexOracle,
        skeletons=None,
    ) -> None:
        self.estimator = estimator
        self.cost_model = cost_model
        self.has_index = index_oracle
        # Prefix-free level-array skeletons by join graph: a bounded memo
        # with ``get`` / ``put`` (the engine's), or ``None`` to keep none.
        self.skeletons = skeletons

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def best_scan(
        self, query: Query, alias: str
    ) -> Tuple[str, Optional[str], float, float]:
        """The cheapest access path for one table: ``(scan type, index
        column, rows, cost)``."""
        table = query.tables[alias]
        filters = query.filters_for(alias)
        base_rows = self.estimator.base_rows(table)
        out_rows = self.estimator.scan_rows(query, alias)
        best = ("seq", None, out_rows, self.cost_model.seq_scan(base_rows, len(filters)))
        for predicate in filters:
            if predicate.op not in _INDEXABLE_OPS:
                continue
            if not self.has_index(table, predicate.column.column):
                continue
            fetched = base_rows * max(
                0.0, min(1.0, self.estimator.filter_selectivity(query, predicate))
            )
            cost = self.cost_model.index_scan(base_rows, fetched, len(filters) - 1)
            if cost < best[3]:
                best = ("index", predicate.column.column, out_rows, cost)
        return best

    def join_space(self, query: Query) -> JoinSpace:
        """Precompute the query's join search space under this expert."""
        return JoinSpace(self, query)

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def optimize(self, query: Query, options: Optional[OptimizerOptions] = None) -> Plan:
        """Find the cheapest left-deep plan under the given options."""
        return self.search(self.join_space(query), options)

    def search(self, space: JoinSpace, options: Optional[OptimizerOptions] = None) -> Plan:
        """Find the cheapest left-deep plan over ``space`` under the options."""
        options = options if options is not None else OptimizerOptions()
        prefix = options.leading_prefix
        if len(set(prefix)) != len(prefix) or not set(prefix) <= space.index.keys():
            raise HintError(
                f"leading prefix {list(prefix)} must name distinct aliases of {space.aliases}"
            )
        tables = len(space.names)
        if tables == 1:
            return space.assemble([0], (), (), ())
        if tables > options.max_dp_tables:
            return self._greedy(space, options)
        if tables >= ARRAY_DP_MIN_TABLES:
            return self._level_arrays(space, options)
        return self._dynamic_programming(space, options)

    def _dynamic_programming(self, space: JoinSpace, options: OptimizerOptions) -> Plan:
        methods = options.allowed_methods()
        prefix = [space.index[alias] for alias in options.leading_prefix]
        costs, neighbors = space.costs, space.neighbors
        extend, join_cost, sort = space.extend, space.join_cost, space.cost_model.sort
        merging = "merge" in methods
        # One dict per subset size: mask -> (cost, rows, reach, last alias,
        # method).  Dict order is discovery order and is the order the next
        # level is expanded in.
        levels = [
            {
                1 << i: (costs[i], space.rows[i], neighbors[i], i, "")
                for i in (prefix[:1] or space.query_order)
            }
        ]
        for size in range(2, len(space.names) + 1):
            level: Dict[int, tuple] = {}
            forced = [prefix[size - 1]] if size <= len(prefix) else None
            for mask, (cost, rows, reach, _, _) in levels[-1].items():
                left_sort = sort(rows) if merging else None
                for i in forced or space.candidates(mask, reach):
                    out_rows, index_usable = extend(rows, mask, i)
                    children_cost = cost + costs[i]
                    key = mask | 1 << i
                    incumbent = level.get(key)
                    best = None if incumbent is None else incumbent[0]
                    choice = ""
                    for method in methods:
                        total = children_cost + join_cost(
                            method, rows, i, out_rows, index_usable, left_sort
                        )
                        if best is None or total < best:
                            best, choice = total, method
                    if choice:
                        level[key] = (best, out_rows, reach | neighbors[i], i, choice)
            levels.append(level)

        # Materialise the winning chain by walking back from the full set.
        chain = []
        mask = space.full
        for level in reversed(levels):
            entry = level[mask]
            chain.append(entry)
            mask ^= 1 << entry[3]
        chain.reverse()
        joins = chain[1:]
        return space.assemble(
            [entry[3] for entry in chain],
            [entry[4] for entry in joins],
            [entry[1] for entry in joins],
            [entry[0] for entry in joins],
        )

    def _level_arrays(self, space: JoinSpace, options: OptimizerOptions) -> Plan:
        """:meth:`_dynamic_programming` with each level evaluated as arrays.

        Same pairs, arithmetic and tie-breaks (module docstring, "Level
        arrays"): the join graph's skeleton, read from :attr:`skeletons` or
        built, evaluated over this query's estimates.
        """
        methods = options.allowed_methods()
        prefix = [space.index[alias] for alias in options.leading_prefix]
        if prefix or self.skeletons is None:
            skeleton = _skeleton(space, prefix)
        else:
            key = (
                tuple(space.query_order),
                tuple(tuple((bit, indexed) for bit, _, _, indexed in joins) for joins in space.joins),
            )
            skeleton = self.skeletons.get(key)
            if skeleton is None:
                skeleton = self.skeletons.put(key, _skeleton(space, prefix))
        cost_model = space.cost_model
        scan_rows, scan_costs = np.array(space.rows), np.array(space.costs)
        sort_costs, descents = np.array(space.sort_costs), np.array(space.descents)
        # Every alias's join selectivities, flat in joins[i] order, then the
        # 1.0 that a missed predicate reads.
        selectivities = np.array(
            [selectivity for joins in space.joins for _, _, selectivity, _ in joins] + [1.0]
        )
        first = skeleton.first
        costs, rows, left_sort = scan_costs[first], scan_rows[first], sort_costs[first]
        # Per level: each subset's winning pair, and every pair's method
        # index and total cost.
        steps = []
        with np.errstate(over="ignore", invalid="ignore"):
            for level in skeleton.levels:
                left, alias = level.left, level.alias
                left_rows, right_rows = rows[left], scan_rows[alias]
                # A multiply reduction folds each pair's factors left to right.
                selectivity = np.multiply.reduceat(selectivities[level.entries], level.segments)
                out_rows = left_rows * right_rows * selectivity
                out_rows = np.where(out_rows > MIN_ROWS, out_rows, MIN_ROWS)
                children_cost = costs[left] + scan_costs[alias]
                best = choice = None
                for m, method in enumerate(methods):
                    if method == "hash":
                        op_cost = cost_model.hash_join(
                            np.minimum(right_rows, left_rows),
                            np.maximum(right_rows, left_rows),
                            out_rows,
                        )
                    elif method == "merge":
                        merge = cost_model.merge_join(left_rows, right_rows, out_rows, True, True)
                        op_cost = merge + left_sort[left] + sort_costs[alias]
                    else:
                        plain = cost_model.nested_loop(left_rows, right_rows, out_rows)
                        probe = cost_model.index_probe_loop(left_rows, descents[alias], out_rows)
                        op_cost = np.where(level.index_usable & (probe < plain), probe, plain)
                    total = children_cost + op_cost
                    if best is None:
                        best, choice = total, np.zeros(len(total), dtype=np.int8)
                    else:
                        better = total < best
                        best = np.where(better, total, best)
                        choice[better] = m

                # Each subset's first minimum, subsets in first-discovery order.
                minimums = np.minimum.reduceat(best, level.starts)
                at_minimum = np.flatnonzero(best == np.repeat(minimums, level.sizes))
                winners = at_minimum[np.searchsorted(at_minimum, level.firsts)]
                costs, rows = best[winners], out_rows[winners]
                steps.append((winners, choice, best))
                if "merge" in methods:
                    left_sort = cost_model.sort_each(rows)

        # Walk back from the full set, then build the chain bottom-up.
        chain = []
        position = 0
        for level, (winners, choice, best) in zip(reversed(skeleton.levels), reversed(steps)):
            pair = winners[position]
            chain.append((int(level.alias[pair]), methods[choice[pair]], float(best[pair])))
            position = level.left[pair]
        start = int(first[position])
        chain.reverse()
        rows, mask = [space.rows[start]], 1 << start
        for i, _, _ in chain:
            rows.append(space.extend(rows[-1], mask, i)[0])
            mask |= 1 << i
        return space.assemble(
            [start] + [i for i, _, _ in chain],
            [method for _, method, _ in chain],
            rows[1:],
            [total for _, _, total in chain],
        )

    def _greedy(self, space: JoinSpace, options: OptimizerOptions) -> Plan:
        """GEQO-flavoured greedy fallback for very large queries."""
        methods = options.allowed_methods()
        prefix = [space.index[alias] for alias in options.leading_prefix]
        rows = space.rows
        # Start from the forced prefix head, else the most selective scan;
        # every tie-break below falls to the query's alias order.
        start = prefix[0] if prefix else min(space.query_order, key=rows.__getitem__)
        order, chosen, join_rows, join_costs = [start], [], [], []
        left_rows, left_cost = rows[start], space.costs[start]
        mask = 1 << start
        joined = 1
        while mask != space.full:
            joinable = space.reach(mask) & ~mask
            remaining = [i for i in space.query_order if not mask >> i & 1]
            if joined < len(prefix):
                candidates = [prefix[joined]]
            elif joinable:
                candidates = [i for i in remaining if joinable >> i & 1]
            else:  # disconnected: cross join with the smallest table
                candidates = [min(remaining, key=rows.__getitem__)]
            best = None
            for i in candidates:
                out_rows, index_usable = space.extend(left_rows, mask, i)
                for method in methods:
                    op_cost = space.join_cost(method, left_rows, i, out_rows, index_usable)
                    cost = op_cost + space.costs[i]
                    if best is None or cost < best[0]:
                        best = (cost, i, method, out_rows)
            cost, i, method, left_rows = best
            left_cost = left_cost + cost
            order.append(i)
            chosen.append(method)
            join_rows.append(left_rows)
            join_costs.append(left_cost)
            mask |= 1 << i
            joined += 1
        return space.assemble(order, chosen, join_rows, join_costs)
