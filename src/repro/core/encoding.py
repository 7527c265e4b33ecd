"""QueryFormer-lite plan encoding (paper §IV-A).

Per node we extract operator, table, join columns, and up to three filter
predicates (column, op, normalized constant) — but *not* histograms or
samples, which the paper drops for efficiency.  Structural features are the
node height and a 4-way structure type (left / right / no-siblings / root).
Tree structure enters the transformer through a *reachability* attention
mask: node pairs may attend iff one is an ancestor of the other (or they
are the same node); unreachable pairs get attention score ~0.  Nodes are
numbered in pre-order, so every subtree is one contiguous span of
positions; mask and heights are both read off those spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.catalog.schema import Schema
from repro.catalog.statistics import StatisticsCatalog
from repro.engine.memo import Memo
from repro.optimizer.plans import JoinNode, PlanNode, ScanNode, plan_signature
from repro.sql.ast import Query

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


@dataclass
class EncodedPlan:
    """Fixed-size arrays describing one plan (padded to ``max_nodes``)."""

    ops: np.ndarray            # (N,) operator ids
    tables: np.ndarray         # (N,) table ids (0 = none/join node)
    join_left_col: np.ndarray  # (N,) column ids (0 = none)
    join_right_col: np.ndarray
    filter_cols: np.ndarray    # (N, F) column ids (0 = none)
    filter_ops: np.ndarray     # (N, F) predicate-op ids (0 = none)
    filter_vals: np.ndarray    # (N, F) normalized constants in [0, 1]
    heights: np.ndarray        # (N,)
    structs: np.ndarray        # (N,)
    attention_mask: np.ndarray  # (N, N) bool; True = may attend
    node_mask: np.ndarray      # (N,) bool; True = real node
    num_nodes: int
    # Contiguous packed views over the same storage as the fields above,
    # letting batch consumers gather all int features with one stack each:
    # int_block rows are (ops, tables, join_left_col, join_right_col,
    # heights, structs); fint_block rows are (filter_cols, filter_ops).
    int_block: Optional[np.ndarray] = None   # (6, N) int64
    fint_block: Optional[np.ndarray] = None  # (2, N, F) int64


class PlanEncoder:
    """Encodes complete plans for a fixed schema into :class:`EncodedPlan`.

    Vocabulary sizes (tables, columns) come from the schema; constants are
    min-max normalized with column statistics when available.

    Encodings are pure functions of (query, plan), so the encoder keeps one
    shared LRU cache that every consumer (planner statevecs, simulated
    environment, AAM sample building, inference) hits through :meth:`encode`
    / :meth:`encode_many`.
    """

    def __init__(
        self,
        schema: Schema,
        max_nodes: int,
        statistics: Optional[StatisticsCatalog] = None,
        cache_capacity: int = 200_000,
    ) -> None:
        self.schema = schema
        self.max_nodes = max_nodes
        self.statistics = statistics
        self._cache: Memo[Tuple[str, str], EncodedPlan] = Memo(cache_capacity)
        # Scan-leaf features are invariant across all plans of a query
        # (only order/methods/structure change), so they are derived once.
        self._leaf_cache: Memo[Tuple[str, str], _LeafFeatures] = Memo(cache_capacity)
        # id 0 is the "none" sentinel for both vocabularies.
        self._table_ids: Dict[str, int] = {
            name: i + 1 for i, name in enumerate(schema.table_names)
        }
        self._column_ids: Dict[Tuple[str, str], int] = {}
        for table_name in schema.table_names:
            for column in schema.table(table_name).column_names:
                self._column_ids[(table_name, column)] = len(self._column_ids) + 1
        # Position constants of the span computation in :meth:`_encode_batch`.
        positions = np.arange(max_nodes + 1)
        self._positions = positions[:max_nodes]
        self._later = positions > self._positions[:, None]
        self._at_or_after = self._positions >= self._positions[:, None]

    @property
    def num_tables(self) -> int:
        return len(self._table_ids) + 1

    @property
    def num_columns(self) -> int:
        return len(self._column_ids) + 1

    # ------------------------------------------------------------------
    def encode(self, query: Query, plan: PlanNode) -> EncodedPlan:
        """Encode one complete plan, hitting the shared cache first."""
        return self.encode_many([(query, plan)])[0]

    def encode_many(
        self, pairs: Sequence[Tuple[Query, PlanNode]]
    ) -> List[EncodedPlan]:
        """Encode a batch of (query, plan) pairs through the shared cache.

        This is a true batch path: after one cache-lookup pass (with
        in-batch dedup), *all* uncached plans are encoded together by
        :meth:`_encode_batch`, whose feature writes and subtree spans
        vectorize across the whole cohort.
        """
        keys = [(query.signature(), plan_signature(plan)) for query, plan in pairs]
        return self._cache.many(keys, pairs, self._encode_batch)

    def _encode_batch(self, pairs: Sequence[Tuple[Query, PlanNode]]) -> List[EncodedPlan]:
        """Encode ``pairs``, bypassing the encoding cache, with vectorized writes.

        One Python pass walks every plan tree collecting parallel id lists
        and node depths; each feature field is then filled with a single
        boolean-mask assignment across the whole batch.  Reachability and
        heights come from pre-order spans, a fixed number of numpy calls
        over ``(batch, max_nodes, max_nodes)`` whatever the batch size or
        tree depth: node i's subtree is the positions ``[i, end_i)``, where
        ``end_i`` is the first later position no deeper than i, so the mask
        is the spans OR their transpose, and a height is the deepest depth
        inside the span minus the node's own.  The returned
        ``EncodedPlan`` fields are row views of the shared batch arrays.
        """
        n_max = self.max_nodes
        batch = len(pairs)
        # The six per-node int fields live in one zeroed block (views keep
        # the per-field names); ditto the two int filter-slot fields.
        int_block = np.zeros((batch, 6, n_max), dtype=np.int64)
        ops, tables, join_left, join_right, heights, structs = (
            int_block[:, 0], int_block[:, 1], int_block[:, 2],
            int_block[:, 3], int_block[:, 4], int_block[:, 5],
        )
        fint_block = np.zeros((batch, 2, n_max, MAX_FILTERS_PER_NODE), dtype=np.int64)
        filter_cols, filter_ops = fint_block[:, 0], fint_block[:, 1]
        filter_vals = np.zeros((batch, n_max, MAX_FILTERS_PER_NODE), dtype=np.float64)
        # Depth -1 past each plan's last node, and in one extra column, ends
        # every span by ``n_max`` and gives a padding row its diagonal alone.
        depth = np.full((batch, n_max + 1), -1, dtype=np.int64)
        counts: List[int] = []

        # Parallel value lists collected in one walk over every tree, in
        # walk order: plan by plan, each in pre-order, which is the row-major
        # order of the boolean masks that scatter them below.
        all_depth: List[int] = []
        all_struct: List[int] = []
        all_op: List[int] = []
        scans: List[Tuple[Query, ScanNode]] = []
        scan_keys: List[Tuple[str, str]] = []
        join_l: List[int] = []  # 0 (none) for a join without predicates
        join_r: List[int] = []

        # Hot-loop local bindings (the walk visits every node of every plan).
        append_depth = all_depth.append
        append_struct, append_op = all_struct.append, all_op.append
        column_ids = self._column_ids
        append_scan, append_scan_key = scans.append, scan_keys.append
        join_op_ids = _JOIN_OP_IDS

        for query, plan in pairs:
            # Iterative pre-order walk (node, depth, is-left-child); right is
            # pushed first so left pops first, matching recursion.
            stack: List[Tuple[PlanNode, int, Optional[bool]]] = [(plan, 0, None)]
            pop, push = stack.pop, stack.append
            index = 0
            query_tables = query.tables
            query_signature = query.signature()
            while stack:
                node, level, as_left = pop()
                index += 1
                append_depth(level)
                if level == 0:
                    append_struct(STRUCT_ROOT)
                elif as_left is None:
                    append_struct(STRUCT_NO_SIBLING)
                else:
                    append_struct(STRUCT_LEFT if as_left else STRUCT_RIGHT)
                if isinstance(node, JoinNode):
                    append_op(join_op_ids[node.method])
                    if node.predicates:
                        predicate = node.predicates[0]
                        pred_left, pred_right = predicate.left, predicate.right
                        join_l.append(column_ids[(query_tables[pred_left.alias], pred_left.column)])
                        join_r.append(column_ids[(query_tables[pred_right.alias], pred_right.column)])
                    else:
                        join_l.append(0)
                        join_r.append(0)
                    push((node.right, level + 1, False))
                    push((node.left, level + 1, True))
                else:
                    assert isinstance(node, ScanNode)
                    append_op(OP_PAD)  # set from the scan's features below
                    append_scan((query, node))
                    append_scan_key((query_signature, plan_signature(node)))
            n = index
            if n > n_max:
                raise ValueError(f"plan has {n} nodes, encoder limit is {n_max}")
            counts.append(n)

        node_mask = self._positions < np.array(counts)[:, None]
        own = depth[:, :n_max]
        own[node_mask] = all_depth
        structs[node_mask] = all_struct
        ops[node_mask] = all_op
        is_join = ops >= OP_HASH_JOIN
        is_scan = node_mask & ~is_join
        leaves = self._leaf_cache.many(
            scan_keys, scans, lambda misses: [self._leaf_features(*scan) for scan in misses]
        )
        scan_op, scan_table, scan_fcols, scan_fops, scan_fvals = zip(*leaves)
        ops[is_scan] = scan_op
        tables[is_scan] = scan_table
        filter_cols[is_scan] = np.array(scan_fcols)
        filter_ops[is_scan] = np.array(scan_fops)
        filter_vals[is_scan] = np.array(scan_fvals)
        join_left[is_join] = join_l
        join_right[is_join] = join_r

        # Every node may attend to itself (real and padding rows alike) and
        # to its ancestors and descendants.
        ends = ((depth[:, None, :] <= own[:, :, None]) & self._later).argmax(axis=2)
        spans = self._at_or_after & (self._positions < ends[:, :, None])
        attention = spans | spans.transpose(0, 2, 1)
        # A height (the longest downward path to a leaf) is the deepest
        # depth in ``[i, end_i)`` minus i's own: one max per slice of the
        # flat depths, between interleaved bounds whose odd slices are spare.
        bounds = np.empty((batch, n_max, 2), dtype=np.int64)
        row_starts = np.arange(0, depth.size, n_max + 1)[:, None]
        bounds[:, :, 0] = row_starts + self._positions
        bounds[:, :, 1] = row_starts + ends
        deepest = np.maximum.reduceat(depth.reshape(-1), bounds.reshape(-1))[::2]
        heights[...] = deepest.reshape(batch, n_max) - own

        return [
            EncodedPlan(
                ops=ops[u],
                tables=tables[u],
                join_left_col=join_left[u],
                join_right_col=join_right[u],
                filter_cols=filter_cols[u],
                filter_ops=filter_ops[u],
                filter_vals=filter_vals[u],
                heights=heights[u],
                structs=structs[u],
                attention_mask=attention[u],
                node_mask=node_mask[u],
                num_nodes=counts[u],
                int_block=int_block[u],
                fint_block=fint_block[u],
            )
            for u in range(batch)
        ]

    def _leaf_features(self, query: Query, node: ScanNode) -> _LeafFeatures:
        """Per-(query, scan) features: op, table id, filter slots."""
        fcols = np.zeros(MAX_FILTERS_PER_NODE, dtype=np.int64)
        fops = np.zeros(MAX_FILTERS_PER_NODE, dtype=np.int64)
        fvals = np.zeros(MAX_FILTERS_PER_NODE, dtype=np.float64)
        for slot, predicate in enumerate(node.filters[:MAX_FILTERS_PER_NODE]):
            table = query.tables[predicate.column.alias]
            fcols[slot] = self._column_ids[(table, predicate.column.column)]
            fops[slot] = _PRED_OPS[predicate.op]
            fvals[slot] = self._normalize(table, predicate.column.column, predicate.values[0])
        op_id = OP_INDEX_SCAN if node.scan_type == "index" else OP_SEQ_SCAN
        return op_id, self._table_ids[node.table], fcols, fops, fvals

    def _normalize(self, table: str, column: str, value: float) -> float:
        if self.statistics is None or table not in self.statistics:
            return 1.0 / (1.0 + abs(value))
        stats = self.statistics.table(table).column(column)
        if stats is None or stats.max_value <= stats.min_value:
            return 0.5
        return float(np.clip((value - stats.min_value) / (stats.max_value - stats.min_value), 0.0, 1.0))
