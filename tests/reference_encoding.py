"""Test-only oracle: a plan-encoder batch path for any binary plan tree.

This is an earlier ``PlanEncoder._encode_batch``, kept verbatim: a general
pre-order walk, the reachability mask by an iterative ancestor-pointer chase
over every node of every plan (one round per tree level), and heights by
either of its two paths, ``np.maximum.at`` passes over every child -> parent
edge for a batch of 8 or more and a reverse pre-order Python sweep below
that.  The encoder now reads a left-deep plan's structure off its table
count and refuses any other shape; the differential tests in
``tests/test_core_reward_encoding.py`` require it to reproduce this oracle
``array_equal`` field for field on every left-deep plan, and the oracle
still encodes bushy trees.  Its changes since: it returns a
:class:`ReferenceEncoding`, the ``EncodedPlan`` of its day (every field
padded to ``max_nodes``) that also keeps the per-plan heights, structs,
reachability mask and node mask the encoder no longer stores, so the tests
can hold them to ``left_deep_shape``, and whose :meth:`real_nodes` is the
``EncodedPlan`` the encoder now writes; it walks
the tree (``reference_plans``) of a plan record; and it hands the
encoder's ``_leaf_features`` a scan's alias and type rather than the scan.
Nothing under ``src/`` imports it; do not optimise it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.encoding import (
    _JOIN_OP_IDS,
    MAX_FILTERS_PER_NODE,
    STRUCT_LEFT,
    STRUCT_NO_SIBLING,
    STRUCT_RIGHT,
    STRUCT_ROOT,
    EncodedPlan,
    PlanEncoder,
)
from repro.optimizer.plans import Plan
from repro.sql.ast import Query
from reference_plans import JoinNode, PlanNode, ScanNode, to_tree


@dataclass
class ReferenceEncoding:
    """One plan padded to ``max_nodes`` positions, its structure rows kept."""

    ops: np.ndarray             # (N,) operator ids
    tables: np.ndarray          # (N,) table ids (0 = none/join node)
    join_left_col: np.ndarray   # (N,) column ids (0 = none)
    join_right_col: np.ndarray
    filter_cols: np.ndarray     # (N, F) column ids (0 = none)
    filter_ops: np.ndarray      # (N, F) predicate-op ids (0 = none)
    filter_vals: np.ndarray     # (N, F) normalized constants in [0, 1]
    num_nodes: int
    int_block: np.ndarray       # (6, N): the six int fields above, as rows
    fint_block: np.ndarray      # (2, N, F): filter_cols and filter_ops
    heights: np.ndarray         # (N,)
    structs: np.ndarray         # (N,)
    attention_mask: np.ndarray  # (N, N) bool; True = may attend
    node_mask: np.ndarray       # (N,) bool; True = real node

    def real_nodes(self) -> EncodedPlan:
        """The real-node slices of the packed blocks."""
        n = self.num_nodes
        return EncodedPlan(self.int_block[:, :n], self.fint_block[:, :n], self.filter_vals[:n])


def encode_batch(
    encoder: PlanEncoder, pairs: Sequence[Tuple[Query, PlanNode]]
) -> List[ReferenceEncoding]:
    """Encode ``pairs`` (no cache involvement) with vectorized writes.

    One Python pass walks every plan tree collecting parallel id lists;
    each feature field is then filled with a single fancy-indexed
    assignment across the whole batch, and the reachability mask is
    built by an iterative ancestor-pointer chase vectorized over all
    nodes of all plans (loop length = max tree depth, not node count).
    The returned ``EncodedPlan`` fields are row views of the shared
    batch arrays.
    """
    n_max = encoder.max_nodes
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
    attention = np.zeros((batch, n_max, n_max), dtype=bool)
    node_mask = np.zeros((batch, n_max), dtype=bool)
    parent_of = np.full((batch, n_max), -1, dtype=np.int64)
    counts: List[int] = []

    # Parallel scatter lists collected in one walk over every tree.
    all_u: List[int] = []
    all_i: List[int] = []
    all_parent: List[int] = []
    all_struct: List[int] = []
    all_op: List[int] = []
    starts: List[int] = []
    scan_u: List[int] = []
    scan_i: List[int] = []
    scan_table: List[int] = []
    scan_fcols: List[np.ndarray] = []
    scan_fops: List[np.ndarray] = []
    scan_fvals: List[np.ndarray] = []
    join_u: List[int] = []
    join_i: List[int] = []
    join_l: List[int] = []
    join_r: List[int] = []

    # Hot-loop local bindings (the walk visits every node of every plan).
    append_u, append_i = all_u.append, all_i.append
    append_struct, append_op = all_struct.append, all_op.append
    column_ids = encoder._column_ids
    leaf_features = encoder._leaf_features
    join_op_ids = _JOIN_OP_IDS

    for u, (query, plan) in enumerate(pairs):
        if isinstance(plan, Plan):
            plan = to_tree(plan)
        starts.append(len(all_u))
        # Iterative pre-order walk (node, parent index, is-left-child);
        # right is pushed first so left pops first, matching recursion.
        stack: List[Tuple[PlanNode, int, Optional[bool]]] = [(plan, -1, None)]
        pop, push = stack.pop, stack.append
        index = 0
        query_tables = query.tables
        while stack:
            node, parent_index, as_left = pop()
            i = index
            index += 1
            all_parent.append(parent_index)
            append_u(u)
            append_i(i)
            if parent_index < 0:
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
                    join_u.append(u)
                    join_i.append(i)
                    join_l.append(column_ids[(query_tables[pred_left.alias], pred_left.column)])
                    join_r.append(column_ids[(query_tables[pred_right.alias], pred_right.column)])
                push((node.right, i, False))
                push((node.left, i, True))
            else:
                assert isinstance(node, ScanNode)
                op_id, table_id, fc, fo, fv = leaf_features(query, node.alias, node.scan_type)
                append_op(op_id)
                scan_u.append(u)
                scan_i.append(i)
                scan_table.append(table_id)
                scan_fcols.append(fc)
                scan_fops.append(fo)
                scan_fvals.append(fv)
        n = index
        if n > n_max:
            raise ValueError(f"plan has {n} nodes, encoder limit is {n_max}")
        counts.append(n)

    u_arr = np.asarray(all_u, dtype=np.int64)
    i_arr = np.asarray(all_i, dtype=np.int64)
    parent_arr = np.asarray(all_parent, dtype=np.int64)
    structs[u_arr, i_arr] = all_struct
    ops[u_arr, i_arr] = all_op
    node_mask[u_arr, i_arr] = True
    parent_of[u_arr, i_arr] = parent_arr

    # Height = longest downward path to a leaf (h <= n - 1 <= n_max - 1,
    # so no clip is needed).  Large batches propagate heights one level
    # per ``maximum.at`` pass over every child->parent edge of every
    # plan (loop length = max tree depth); small batches use a plain
    # reverse pre-order list sweep, which beats numpy call overhead at
    # that size.  Both produce identical integers.
    if batch >= 8:
        edge = parent_arr >= 0
        eu, ei, ep = u_arr[edge], i_arr[edge], parent_arr[edge]
        while True:
            lifted = heights[eu, ei] + 1
            if (lifted <= heights[eu, ep]).all():
                break
            np.maximum.at(heights, (eu, ep), lifted)
    else:
        for u, (start, n) in enumerate(zip(starts, counts)):
            parents_local = all_parent[start : start + n]
            h = [0] * n
            for i in range(n - 1, 0, -1):
                p = parents_local[i]
                lifted = h[i] + 1
                if h[p] < lifted:
                    h[p] = lifted
            heights[u, :n] = h
    if scan_u:
        su = np.asarray(scan_u, dtype=np.int64)
        si = np.asarray(scan_i, dtype=np.int64)
        tables[su, si] = scan_table
        filter_cols[su, si] = np.stack(scan_fcols)
        filter_ops[su, si] = np.stack(scan_fops)
        filter_vals[su, si] = np.stack(scan_fvals)
    if join_u:
        ju = np.asarray(join_u, dtype=np.int64)
        ji = np.asarray(join_i, dtype=np.int64)
        join_left[ju, ji] = join_l
        join_right[ju, ji] = join_r

    # Reachability: every node may attend to itself (real and padding
    # rows alike) and to its ancestors/descendants.  Chase the ancestor
    # pointers of all nodes of all plans at once.
    diag = np.arange(n_max)
    attention[:, diag, diag] = True
    uu, ii = u_arr, i_arr
    anc = parent_arr
    while True:
        live = anc >= 0
        if not live.any():
            break
        uu, ii, aa = uu[live], ii[live], anc[live]
        attention[uu, ii, aa] = True
        attention[uu, aa, ii] = True
        anc = parent_of[uu, aa]

    return [
        ReferenceEncoding(
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
