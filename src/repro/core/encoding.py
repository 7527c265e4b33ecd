"""QueryFormer-lite plan encoding (paper §IV-A).

Per node we extract operator, table, join columns, and up to three filter
predicates (column, op, normalized constant) — but *not* histograms or
samples, which the paper drops for efficiency.  Structural features are the
node height and a 4-way structure type (left / right / no-siblings / root).
Tree structure enters the transformer through a *reachability* attention
mask: node pairs may attend iff one is an ancestor of the other (or they
are the same node); unreachable pairs get attention score ~0.

Every plan is left-deep (the paper's scope; a
:class:`~repro.optimizer.plans.Plan` cannot be anything else): each
join's right child is a scan.  Numbered in pre-order, an ``n``-table plan
is always ``J_k ... J_1, S_0 ... S_k`` (``k = n - 1`` joins from the root
down, then the scans left to right), so depth, height, structure type and
the reachability mask are functions of ``n`` alone:
:func:`left_deep_shape` defines them once, and the encoder reads a plan's
structure rows off its table count and its features off the plan's
tuples.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.catalog.catalog import Catalog
from repro.engine.memo import Memo
from repro.optimizer.plans import Plan, plan_signature
from repro.sql.ast import Query, StatementKey

# Operator vocabulary (0 is reserved for padding).
OP_PAD = 0
OP_SEQ_SCAN = 1
OP_INDEX_SCAN = 2
OP_HASH_JOIN = 3
OP_MERGE_JOIN = 4
OP_NEST_LOOP = 5
NUM_OPS = 6

_JOIN_OP_IDS = {"hash": OP_HASH_JOIN, "merge": OP_MERGE_JOIN, "nestloop": OP_NEST_LOOP}

# Predicate-operator vocabulary (0 = none).
_PRED_OPS = {"=": 1, "<>": 2, "<": 3, "<=": 4, ">": 5, ">=": 6, "IN": 7, "BETWEEN": 8}
NUM_PRED_OPS = 9

# Structure types (paper: left, right, no-siblings, root).
STRUCT_LEFT = 0
STRUCT_RIGHT = 1
STRUCT_NO_SIBLING = 2
STRUCT_ROOT = 3
NUM_STRUCT_TYPES = 4

MAX_FILTERS_PER_NODE = 3

# A scan's features: op id, table id, filter columns, ops and values.
_LeafFeatures = Tuple[int, int, np.ndarray, np.ndarray, np.ndarray]


class LeftDeepShape(NamedTuple):
    """The structure rows of an ``n``-table left-deep plan, padded to a
    width: ``(width,)`` heights, structs and node mask and the ``(width,
    width)`` reachability mask.  The arrays are read-only."""

    heights: np.ndarray
    structs: np.ndarray
    node_mask: np.ndarray
    reach: np.ndarray


@functools.cache
def left_deep_shape(tables: int, width: int) -> LeftDeepShape:
    """The structure of every left-deep plan of ``tables`` tables, padded
    to ``width`` positions (at least ``2 * tables - 1``).

    Pre-order puts the joins ``J_k ... J_1`` at positions ``0 .. k-1`` and
    the scans ``S_0 ... S_k`` at ``k .. 2k``.  Join ``J_j`` (position
    ``k - j``) has height ``j`` and the subtree ``J_j ... J_1, S_0 ... S_j``,
    the positions up to ``2k - (k - j)``; a scan's subtree is itself.  The
    root is ``STRUCT_ROOT``, every other join and ``S_0`` ``STRUCT_LEFT``,
    the other scans ``STRUCT_RIGHT``.  Every position attends to itself,
    padding included, and a real node to its ancestors and descendants.
    """
    joins, nodes = tables - 1, 2 * tables - 1
    if tables < 1 or nodes > width:
        raise ValueError(f"no {tables}-table plan fits {width} positions")
    heights = np.zeros(width, dtype=np.int64)
    heights[:joins] = np.arange(joins, 0, -1)
    structs = np.zeros(width, dtype=np.int64)  # STRUCT_LEFT, and padding's 0
    structs[joins + 1 : nodes] = STRUCT_RIGHT
    structs[0] = STRUCT_ROOT
    node_mask = np.arange(width) < nodes
    reach = np.eye(width, dtype=bool)
    for position in range(joins):
        subtree = slice(position, nodes - position)
        reach[position, subtree] = reach[subtree, position] = True
    for array in (heights, structs, node_mask, reach):
        array.flags.writeable = False
    return LeftDeepShape(heights, structs, node_mask, reach)


@dataclass
class EncodedPlan:
    """One left-deep plan's ``n = 2 * tables - 1`` real nodes, in pre-order.

    ``int_block`` rows are (ops, tables, join_left_col, join_right_col,
    heights, structs), ids 0 meaning none; ``fint_block`` rows are the
    filter slots' (columns, predicate ops).  Left-deep is the invariant:
    the heights and structs, node mask and reachability mask are
    :func:`left_deep_shape` of the table count, so only the heights and
    structs are stored.
    """

    int_block: np.ndarray    # (6, n) int64
    fint_block: np.ndarray   # (2, n, F) int64
    filter_vals: np.ndarray  # (n, F) normalized constants in [0, 1]

    @property
    def num_nodes(self) -> int:
        return self.int_block.shape[1]


class PlanEncoder:
    """Encodes complete plans over a fixed catalog into :class:`EncodedPlan`.

    Vocabulary sizes (tables, columns) come from the catalog's schema;
    constants are min-max normalized with its column statistics.

    Encodings are pure functions of (query, plan), so the encoder keeps one
    shared LRU cache that every consumer (planner statevecs, simulated
    environment, AAM sample building, inference) hits through :meth:`encode`
    / :meth:`encode_many`.
    """

    def __init__(self, catalog: Catalog, max_nodes: int, cache_capacity: int = 200_000) -> None:
        self.max_nodes = max_nodes
        self.statistics = catalog.statistics
        schema = catalog.schema
        self._cache: Memo[Tuple[StatementKey, str], EncodedPlan] = Memo(cache_capacity)
        # Scan-leaf features are invariant across all plans of a query
        # (only order/methods/structure change), so they are derived once.
        self._leaf_cache: Memo[Tuple[StatementKey, str, str], _LeafFeatures] = Memo(cache_capacity)
        # id 0 is the "none" sentinel for both vocabularies.
        self._table_ids: Dict[str, int] = {
            name: i + 1 for i, name in enumerate(schema.table_names)
        }
        self._column_ids: Dict[Tuple[str, str], int] = {}
        for table_name in schema.table_names:
            for column in schema.table(table_name).column_names:
                self._column_ids[(table_name, column)] = len(self._column_ids) + 1
        # The heights and structs of every table count that fits, indexed
        # by ``tables - 1``: ``(2, 2 * tables - 1)``.
        self._structure = [
            np.stack(left_deep_shape(t, 2 * t - 1)[:2]) for t in range(1, (max_nodes + 1) // 2 + 1)
        ]

    @property
    def num_tables(self) -> int:
        return len(self._table_ids) + 1

    @property
    def num_columns(self) -> int:
        return len(self._column_ids) + 1

    # ------------------------------------------------------------------
    def encode(self, query: Query, plan: Plan) -> EncodedPlan:
        """Encode one complete plan, hitting the shared cache first."""
        return self.encode_many([(query, plan)])[0]

    def encode_many(
        self, pairs: Sequence[Tuple[Query, Plan]]
    ) -> List[EncodedPlan]:
        """Encode a batch of (query, plan) pairs through the shared cache.

        This is a true batch path: after one cache-lookup pass (with
        in-batch dedup), *all* uncached plans are encoded together by
        :meth:`_encode_batch`, whose structure gathers and feature writes
        vectorize across the whole cohort.
        """
        keys = [(query.key(), plan_signature(plan)) for query, plan in pairs]
        return self._cache.many(keys, pairs, self._encode_batch)

    def _encode_batch(self, pairs: Sequence[Tuple[Query, Plan]]) -> List[EncodedPlan]:
        """Encode ``pairs``, bypassing the encoding cache, with vectorized writes.

        One Python pass over every plan's tuples collects join method ids
        and each join's first-predicate column ids (root first) and the
        scans (left to right, for the leaf cache).  The batch's real nodes
        are laid end to end, their structure rows concatenated by table
        count (:func:`left_deep_shape`), and each variable field is then
        filled with a single boolean-mask assignment across the batch.  The
        returned ``EncodedPlan`` fields are column slices of the shared
        batch arrays.
        """
        n_max = self.max_nodes
        # Parallel value lists collected plan by plan, joins root first and
        # scans left to right, which is the order of the boolean masks that
        # scatter them below (pre-order is J_k ... J_1, S_0 ... S_k).
        counts: List[int] = []
        join_op: List[int] = []
        join_l: List[int] = []  # 0 (none) for a join without predicates
        join_r: List[int] = []
        scans: List[Tuple[Query, str, str]] = []
        scan_keys: List[Tuple[StatementKey, str, str]] = []
        column_ids = self._column_ids
        join_op_ids = _JOIN_OP_IDS

        for query, plan in pairs:
            query_tables = query.tables
            n = 2 * len(plan.aliases) - 1
            if n > n_max:
                raise ValueError(f"plan has {n} nodes, encoder limit is {n_max}")
            counts.append(n)
            for method, predicates in zip(reversed(plan.methods), reversed(plan.predicates)):
                join_op.append(join_op_ids[method])
                if predicates:
                    pred_left, pred_right = predicates[0].left, predicates[0].right
                    join_l.append(column_ids[(query_tables[pred_left.alias], pred_left.column)])
                    join_r.append(column_ids[(query_tables[pred_right.alias], pred_right.column)])
                else:
                    join_l.append(0)
                    join_r.append(0)
            leaves = len(plan.aliases)
            scans.extend(zip([query] * leaves, plan.aliases, plan.scan_types))
            scan_keys.extend(zip([query.key()] * leaves, plan.aliases, plan.scan_types))

        total = sum(counts)
        int_block = np.zeros((6, total), dtype=np.int64)
        int_block[4:] = np.concatenate([self._structure[n // 2] for n in counts], axis=1)
        ops, tables, join_left, join_right = int_block[:4]
        fint_block = np.zeros((2, total, MAX_FILTERS_PER_NODE), dtype=np.int64)
        filter_vals = np.zeros((total, MAX_FILTERS_PER_NODE), dtype=np.float64)
        is_join = int_block[4] > 0  # a join is a node of positive height
        is_scan = ~is_join
        leaves = self._leaf_cache.many(
            scan_keys, scans, lambda misses: [self._leaf_features(*scan) for scan in misses]
        )
        scan_op, scan_table, scan_fcols, scan_fops, scan_fvals = zip(*leaves)
        ops[is_join] = join_op
        ops[is_scan] = scan_op
        tables[is_scan] = scan_table
        fint_block[0, is_scan] = scan_fcols
        fint_block[1, is_scan] = scan_fops
        filter_vals[is_scan] = scan_fvals
        join_left[is_join] = join_l
        join_right[is_join] = join_r

        ends = np.cumsum(counts).tolist()
        return [
            EncodedPlan(int_block[:, start:end], fint_block[:, start:end], filter_vals[start:end])
            for start, end in zip([0] + ends, ends)
        ]

    def _leaf_features(self, query: Query, alias: str, scan_type: str) -> _LeafFeatures:
        """Per-(query, scan) features: op, table id, filter slots."""
        fcols = np.zeros(MAX_FILTERS_PER_NODE, dtype=np.int64)
        fops = np.zeros(MAX_FILTERS_PER_NODE, dtype=np.int64)
        fvals = np.zeros(MAX_FILTERS_PER_NODE, dtype=np.float64)
        filters = query.alias_filters()[alias][0]
        for slot, predicate in enumerate(filters[:MAX_FILTERS_PER_NODE]):
            table = query.tables[predicate.column.alias]
            fcols[slot] = self._column_ids[(table, predicate.column.column)]
            fops[slot] = _PRED_OPS[predicate.op]
            fvals[slot] = self._normalize(table, predicate.column.column, predicate.values[0])
        op_id = OP_INDEX_SCAN if scan_type == "index" else OP_SEQ_SCAN
        return op_id, self._table_ids[query.tables[alias]], fcols, fops, fvals

    def _normalize(self, table: str, column: str, value: float) -> float:
        stats = self.statistics.table(table).column(column)
        if stats is None or stats.max_value <= stats.min_value:
            return 0.5
        return float(np.clip((value - stats.min_value) / (stats.max_value - stats.min_value), 0.0, 1.0))
