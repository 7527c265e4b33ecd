"""Reward machinery and plan-encoding tests (paper §III reward, §IV-A)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_encoding
from repro.core.encoding import (
    OP_HASH_JOIN,
    OP_INDEX_SCAN,
    OP_SEQ_SCAN,
    MAX_FILTERS_PER_NODE,
    EncodedPlan,
    PlanEncoder,
    STRUCT_LEFT,
    STRUCT_RIGHT,
    STRUCT_ROOT,
    left_deep_shape,
)
from repro.core.icp import IncompletePlan
from repro.core.reward import AdvantageFunction, ReferenceSet, RewardConfig
from reference_plans import JoinNode, ScanNode, to_record, to_tree
from repro.sql.ast import Query


class TestAdvantageFunction:
    def test_initial_range(self):
        adv = AdvantageFunction()
        assert adv.initial(100.0, 50.0) == pytest.approx(0.5)
        assert adv.initial(100.0, 100.0) == pytest.approx(0.0)
        assert adv.initial(100.0, 300.0) == pytest.approx(-2.0)

    def test_discretize_point_set(self):
        """Paper point set {0.05, 0.50} -> scores {0, 1, 2}."""
        adv = AdvantageFunction()
        assert adv.discretize(-1.0) == 0
        assert adv.discretize(0.04) == 0
        assert adv.discretize(0.05) == 0  # boundary belongs to the left interval
        assert adv.discretize(0.051) == 1
        assert adv.discretize(0.50) == 1
        assert adv.discretize(0.51) == 2
        assert adv.discretize(1.0) == 2

    def test_score_from_latencies(self):
        adv = AdvantageFunction()
        assert adv.score(100.0, 100.0) == 0   # no improvement
        assert adv.score(100.0, 80.0) == 1    # 20% saved
        assert adv.score(100.0, 10.0) == 2    # 90% saved

    def test_midpoints(self):
        adv = AdvantageFunction()
        assert adv.midpoint(0) == 0.0
        assert adv.midpoint(1) == pytest.approx((0.05 + 0.50) / 2)
        assert adv.midpoint(2) == pytest.approx((0.50 + 1.0) / 2)

    def test_zero_left_latency_raises(self):
        with pytest.raises(ValueError):
            AdvantageFunction().initial(0.0, 1.0)

    def test_penalty_sign(self):
        adv = AdvantageFunction(RewardConfig(penalty_gamma=2.0))
        assert adv.penalty(min_steps=1, current_step=1) == 0.0
        assert adv.penalty(min_steps=1, current_step=3) == -4.0

    def test_penalty_disabled(self):
        adv = AdvantageFunction(RewardConfig(penalty_gamma=0.0))
        assert adv.penalty(min_steps=0, current_step=3) == 0.0

    def test_episode_bounty_rewards_beating_everything(self):
        adv = AdvantageFunction()
        # refs: best saved 60%, median saved 30%, original 0.
        bounties = (0.6, 0.3, 0.0)
        beats_all = adv.episode_bounty(bounties, [2, 2, 2])
        beats_none = adv.episode_bounty(bounties, [0, 0, 0])
        assert beats_all > beats_none

    def test_episode_bounty_degenerate_refs(self):
        adv = AdvantageFunction()
        assert adv.episode_bounty((0.0, 0.0, 0.0), [1, 1, 1]) > 0.0

    def test_episode_bounty_wrong_arity(self):
        adv = AdvantageFunction()
        with pytest.raises(ValueError):
            adv.episode_bounty((0.5, 0.2), [1, 1])

    def test_invalid_point_set(self):
        with pytest.raises(ValueError):
            AdvantageFunction(RewardConfig(points=(0.5, 0.1)))


class TestReferenceSet:
    def test_from_latencies(self):
        refs = ReferenceSet.from_latencies(100.0, [40.0, 70.0, 90.0])
        assert refs.latencies[0] == 40.0     # best
        assert refs.latencies[1] == 70.0     # median
        assert refs.latencies[2] == 100.0    # original
        assert refs.bounties[0] == pytest.approx(0.6)
        assert refs.bounties[2] == 0.0

    def test_no_better_plans(self):
        refs = ReferenceSet.from_latencies(100.0, [150.0, 200.0])
        assert refs.bounties == (0.0, 0.0, 0.0)
        assert refs.latencies == (100.0, 100.0, 100.0)

    def test_bounties_sorted_descending(self):
        refs = ReferenceSet.from_latencies(100.0, [10.0, 50.0, 80.0])
        assert refs.bounties[0] >= refs.bounties[1] >= refs.bounties[2]


@settings(max_examples=50, deadline=None)
@given(
    left=st.floats(min_value=0.01, max_value=1e5),
    right=st.floats(min_value=0.01, max_value=1e5),
)
def test_advantage_antisymmetry_property(left, right):
    """Adv_init(l, r) > 0 iff Adv_init(r, l) < 0 (strict improvement flips)."""
    adv = AdvantageFunction()
    forward = adv.initial(left, right)
    backward = adv.initial(right, left)
    if forward > 0:
        assert backward < 0
    assert adv.initial(left, left) == 0.0


class TestPlanEncoding:
    @pytest.fixture()
    def encoder(self, job_workload):
        db = job_workload.database
        return PlanEncoder(db.catalog, max_nodes=40)

    def _plan(self, job_workload, num_tables=4):
        db = job_workload.database
        wq = next(w for w in job_workload.all_queries if w.query.num_tables == num_tables)
        return wq.query, db.plan(wq.query).plan

    @staticmethod
    def _shape(encoded):
        """The encoded plan's structure: its table count's left-deep shape."""
        return left_deep_shape((encoded.num_nodes + 1) // 2, encoded.num_nodes)

    def test_node_count(self, encoder, job_workload):
        query, plan = self._plan(job_workload, num_tables=4)
        encoded = encoder.encode(query, plan)
        assert encoded.num_nodes == 2 * 4 - 1
        assert self._shape(encoded).node_mask.sum() == encoded.num_nodes

    def test_root_is_first_node(self, encoder, job_workload):
        query, plan = self._plan(job_workload)
        encoded = encoder.encode(query, plan)
        assert encoded.int_block[5, 0] == STRUCT_ROOT
        assert encoded.int_block[0, 0] in (OP_HASH_JOIN, OP_HASH_JOIN + 1, OP_HASH_JOIN + 2)

    def test_heights_consistent(self, encoder, job_workload):
        query, plan = self._plan(job_workload)
        encoded = encoder.encode(query, plan)
        heights, node_mask = encoded.int_block[4], self._shape(encoded).node_mask
        # Root has the max height; scans have height 0.
        real = heights[node_mask]
        assert heights[0] == real.max()
        ops = encoded.int_block[0]
        assert (heights[((ops == OP_SEQ_SCAN) | (ops == OP_INDEX_SCAN)) & node_mask] == 0).all()

    def test_structure_types_balanced(self, encoder, job_workload):
        query, plan = self._plan(job_workload)
        encoded = encoder.encode(query, plan)
        real = encoded.int_block[5][self._shape(encoded).node_mask]
        assert (real == STRUCT_LEFT).sum() == (real == STRUCT_RIGHT).sum()
        assert (real == STRUCT_ROOT).sum() == 1

    def test_attention_mask_symmetric_and_reflexive(self, encoder, job_workload):
        query, plan = self._plan(job_workload)
        mask = self._shape(encoder.encode(query, plan)).reach
        np.testing.assert_array_equal(mask, mask.T)
        assert mask.diagonal().all()

    def test_attention_mask_blocks_sibling_leaves(self, encoder, job_workload):
        """Two leaves are never ancestor/descendant of each other."""
        query, plan = self._plan(job_workload)
        encoded = encoder.encode(query, plan)
        shape = self._shape(encoded)
        ops = encoded.int_block[0]
        leaf_idx = np.flatnonzero(((ops == OP_SEQ_SCAN) | (ops == OP_INDEX_SCAN)) & shape.node_mask)
        assert len(leaf_idx) >= 2
        assert not shape.reach[leaf_idx[0], leaf_idx[1]]

    def test_root_reaches_everything(self, encoder, job_workload):
        query, plan = self._plan(job_workload)
        encoded = encoder.encode(query, plan)
        assert self._shape(encoded).reach[0, : encoded.num_nodes].all()

    def test_filter_values_normalized(self, encoder, job_workload):
        query, plan = self._plan(job_workload)
        encoded = encoder.encode(query, plan)
        assert (encoded.filter_vals >= 0.0).all()
        assert (encoded.filter_vals <= 1.0).all()

    def test_too_many_nodes_raises(self, job_workload):
        db = job_workload.database
        small = PlanEncoder(db.catalog, max_nodes=3)
        query, plan = self._plan(job_workload)
        with pytest.raises(ValueError):
            small.encode(query, plan)

    def test_different_methods_produce_different_encodings(self, encoder, job_workload):
        from repro.core.icp import IncompletePlan

        db = job_workload.database
        query, plan = self._plan(job_workload)
        icp = IncompletePlan(plan.aliases, plan.methods)
        current = icp.methods[0]
        other = next(m for m in ("hash", "merge", "nestloop") if m != current)
        alt = db.plan_with_hints(query, icp.order, (other,) + icp.methods[1:]).plan
        a = encoder.encode(query, plan)
        b = encoder.encode(query, alt)
        assert not np.array_equal(a.int_block[0], b.int_block[0])


class TestBatchEncoderParity:
    """The vectorized batch encoder must match per-plan reference encoding."""

    def _pairs(self, job_workload, n):
        db = job_workload.database
        eligible = [w for w in job_workload.all_queries if w.query.num_tables >= 3]
        return [(w.query, db.plan(w.query).plan) for w in eligible[:n]]

    def test_encode_many_matches_encode(self, job_workload):
        """A batch of ten vs one-at-a-time encoding."""
        db = job_workload.database
        pairs = self._pairs(job_workload, 10)
        assert len(pairs) >= 8
        batch_enc = PlanEncoder(db.catalog, max_nodes=40)
        single_enc = PlanEncoder(db.catalog, max_nodes=40)
        batched = batch_enc.encode_many(pairs)
        for (query, plan), enc in zip(pairs, batched):
            ref = single_enc.encode(query, plan)
            assert enc.num_nodes == ref.num_nodes
            for field in ("int_block", "fint_block", "filter_vals"):
                np.testing.assert_array_equal(
                    getattr(enc, field), getattr(ref, field), err_msg=field
                )

    def test_batch_holds_real_nodes_only(self, job_workload):
        """A batch's encodings are consecutive slices of one array per
        field, each exactly its plan's ``2 * tables - 1`` nodes wide: no
        padding is stored."""
        db = job_workload.database
        encoder = PlanEncoder(db.catalog, max_nodes=40)
        pairs = self._pairs(job_workload, 10)
        encoded = encoder.encode_many(pairs)
        total = sum(2 * len(plan.aliases) - 1 for _, plan in pairs)
        for name, axis in (("int_block", 1), ("fint_block", 1), ("filter_vals", 0)):
            bases = {id(getattr(enc, name).base) for enc in encoded}
            assert len(bases) == 1 and getattr(encoded[0], name).base.shape[axis] == total, name
        for (_, plan), enc in zip(pairs, encoded):
            n = 2 * len(plan.aliases) - 1
            assert enc.int_block.shape == (6, n)
            assert enc.fint_block.shape == (2, n, MAX_FILTERS_PER_NODE)
            assert enc.filter_vals.shape == (n, MAX_FILTERS_PER_NODE)

    def test_reachability_matches_python_reference(self, job_workload):
        """A plan's reachability mask, its table count's ``left_deep_shape``,
        equals a per-plan Python ancestor closure."""
        db = job_workload.database
        encoder = PlanEncoder(db.catalog, max_nodes=40)
        for query, plan in self._pairs(job_workload, 9):
            enc = encoder.encode(query, plan)
            # Mirror the encoder's pre-order walk to recover parent pointers.
            parents = []
            stack = [(to_tree(plan), -1)]
            while stack:
                node, parent = stack.pop()
                i = len(parents)
                parents.append(parent)
                if isinstance(node, JoinNode):
                    stack.append((node.right, i))
                    stack.append((node.left, i))
            n = len(parents)
            ref = np.zeros((40, 40), dtype=bool)
            np.fill_diagonal(ref, True)  # reflexive over padding too
            for i in range(n):
                a = parents[i]
                while a >= 0:
                    ref[i, a] = ref[a, i] = True
                    a = parents[a]
            np.testing.assert_array_equal(left_deep_shape((n + 1) // 2, 40).reach, ref)

    def test_heights_small_and_large_batch_agree(self, job_workload):
        """A plan's heights do not depend on the batch it is encoded in."""
        db = job_workload.database
        pairs = self._pairs(job_workload, 9)
        small = PlanEncoder(db.catalog, max_nodes=40)
        large = PlanEncoder(db.catalog, max_nodes=40)
        large_encs = large.encode_many(pairs)
        for (query, plan), big in zip(pairs, large_encs):
            np.testing.assert_array_equal(
                small.encode_many([(query, plan)])[0].int_block[4], big.int_block[4]
            )


def _scans(plan):
    """``plan``'s scan leaves, left to right."""
    if isinstance(plan, ScanNode):
        return [plan]
    return _scans(plan.left) + _scans(plan.right)


def _encoder_pairs(workload):
    """Every expert plan of ``workload``, plus one swap- and one
    override-edited hint plan per query of three or more tables."""
    db = workload.database
    pairs = []
    for wq in workload.all_queries:
        plan = db.plan(wq.query).plan
        pairs.append((wq.query, plan))
        icp = IncompletePlan(plan.aliases, plan.methods)
        if icp.num_tables >= 3:
            other = "merge" if icp.methods[-1] != "merge" else "nestloop"
            for edit in (icp.swap(1, icp.num_tables), icp.override(icp.num_joins, other)):
                edited = db.plan_with_hints(wq.query, edit.order, edit.methods).plan
                pairs.append((wq.query, edited))
    return pairs


class TestEncoderAgainstReference:
    """Structure rows read off the table count reproduce the ancestor chase
    and both of its height paths (``tests/reference_encoding.py``) array for
    array, on both sides of the batch size (8) where the chase switched
    height paths: each of the three arrays, ``int_block`` rows 4 and 5
    (heights and structs) among them, equals the oracle's real-node slice
    and is exactly ``2 * tables - 1`` nodes wide, and the oracle's node and
    reachability masks equal ``left_deep_shape`` of the table count."""

    FIELDS = [f.name for f in dataclasses.fields(EncodedPlan)]

    def check(self, workload, pairs, max_nodes=None):
        encoder = PlanEncoder(
            workload.database.catalog, max_nodes=max_nodes or 2 * max(workload.max_query_tables, 2)
        )
        assert self.FIELDS == ["int_block", "fint_block", "filter_vals"]
        for size in (1, 7, 8, 16, 64):
            for start in range(0, len(pairs), size):
                chunk = pairs[start : start + size]
                got = encoder._encode_batch(chunk)
                want = reference_encoding.encode_batch(encoder, chunk)
                for g, w, (_, plan) in zip(got, want, chunk):
                    n = 2 * len(plan.aliases) - 1
                    assert g.num_nodes == w.num_nodes == n, size
                    assert g.fint_block.shape[1] == g.filter_vals.shape[0] == n, size
                    real = w.real_nodes()
                    for name in self.FIELDS:
                        assert np.array_equal(getattr(g, name), getattr(real, name)), (size, name)
                    shape = left_deep_shape(len(plan.aliases), encoder.max_nodes)
                    assert np.array_equal(g.int_block[4], w.heights[:n]), size
                    assert np.array_equal(g.int_block[5], w.structs[:n]), size
                    assert np.array_equal(shape.node_mask, w.node_mask), size
                    assert np.array_equal(shape.reach, w.attention_mask), size

    @pytest.mark.parametrize("name", ["job_workload", "stack_workload", "tpcds_workload"])
    def test_expert_and_edited_plans(self, request, name):
        workload = request.getfixturevalue(name)
        pairs = _encoder_pairs(workload)
        assert len(pairs) > len(workload.all_queries)
        self.check(workload, pairs)

    def test_structure_rows_of_every_table_count(self, job_workload):
        """Synthetic left-deep plans of 1 to ``max_nodes // 2`` tables, one
        method per join and no predicates: every array equals the general
        oracle's real-node slice, and the oracle's structure rows, padding
        included, are ``left_deep_shape``'s."""
        db = job_workload.database
        query = job_workload.all_queries[0].query
        table = db.catalog.schema.table_names[0]
        pairs = []
        for tables in range(1, 40 // 2 + 1):
            query = Query(
                tables={f"s{j}": table for j in range(tables)},
                join_predicates=[],
                filters=[],
                name=f"synthetic{tables}",
            )
            plan = ScanNode(alias="s0", table=table)
            for j in range(1, tables):
                right = ScanNode(alias=f"s{j}", table=table)
                plan = JoinNode(left=plan, right=right, method=("hash", "merge", "nestloop")[j % 3])
            pairs.append((query, to_record(plan, query)))
        self.check(job_workload, pairs, max_nodes=40)
        encoder = PlanEncoder(db.catalog, max_nodes=40)
        for tables, want in enumerate(reference_encoding.encode_batch(encoder, pairs), 1):
            assert want.num_nodes == 2 * tables - 1
            shape = left_deep_shape(tables, 40)
            assert np.array_equal(shape.heights, want.heights)
            assert np.array_equal(shape.structs, want.structs)
            assert np.array_equal(shape.node_mask, want.node_mask)
            assert np.array_equal(shape.reach, want.attention_mask)
            assert not shape.reach.flags.writeable

    def test_bushy_tree(self, job_workload):
        """No plan is bushy: the test-side converter refuses a join on the
        right of a join, so the encoder never sees one.  The tree's left-deep
        halves, as plans of their own aliases, still encode equal to the
        general oracle, which still encodes the whole tree."""
        db = job_workload.database
        query = next(w.query for w in job_workload.all_queries if w.query.num_tables == 5)
        a, b, c, d, e = _scans(to_tree(db.plan(query).plan))
        right = JoinNode(left=JoinNode(left=c, right=d, method="merge"), right=e, method="nestloop")
        bushy = JoinNode(left=JoinNode(left=a, right=b, method="hash"), right=right, method="hash")
        with pytest.raises(ValueError, match="left-deep"):
            to_record(bushy, query)
        encoder = PlanEncoder(db.catalog, max_nodes=40)
        halves = []
        for half in (bushy.right, bushy.left):
            aliases = [scan.alias for scan in _scans(half)]
            part = Query(
                tables={alias: query.tables[alias] for alias in aliases},
                join_predicates=[],
                filters=[f for f in query.filters if f.column.alias in aliases],
                name=f"{query.name}:{','.join(aliases)}",
            )
            halves.append((part, to_record(half, part)))
        self.check(job_workload, halves)
        encoding = reference_encoding.encode_batch(encoder, [(query, bushy)])[0]
        assert list(encoding.heights[:9]) == [3, 1, 0, 0, 2, 1, 0, 0, 0]


class TestLeafCacheLRU:
    """`_leaf_cache` keeps recently-touched scan features past capacity."""

    def _alt_plan(self, db, query, plan):
        from repro.core.icp import IncompletePlan

        icp = IncompletePlan(plan.aliases, plan.methods)
        current = icp.methods[0]
        other = next(m for m in ("hash", "merge", "nestloop") if m != current)
        return db.plan_with_hints(query, icp.order, (other,) + icp.methods[1:]).plan

    def test_recently_used_leaves_survive_eviction(self, job_workload):
        db = job_workload.database
        eligible = [w for w in job_workload.all_queries if w.query.num_tables >= 3]
        (q1, p1), (q2, p2), (q3, p3) = (
            (w.query, db.plan(w.query).plan) for w in eligible[:3]
        )
        cap = q1.num_tables + q2.num_tables
        encoder = PlanEncoder(
            db.catalog, max_nodes=40, cache_capacity=cap
        )
        encoder.encode(q1, p1)
        keys_q1 = set(encoder._leaf_cache)
        encoder.encode(q2, p2)
        assert len(encoder._leaf_cache) == cap
        # Touch q1's leaves again through a different plan of the same query
        # (leaf features are join-order/method-invariant, so this hits).
        encoder.encode(q1, self._alt_plan(db, q1, p1))
        assert set(encoder._leaf_cache) >= keys_q1
        # Overflow: the least-recently-used entries (q2's) are evicted first.
        encoder.encode(q3, p3)
        assert len(encoder._leaf_cache) <= cap
        assert keys_q1 <= set(encoder._leaf_cache)

    def test_leaf_cache_bounded(self, job_workload):
        db = job_workload.database
        encoder = PlanEncoder(
            db.catalog, max_nodes=40, cache_capacity=5
        )
        for w in [w for w in job_workload.all_queries if w.query.num_tables >= 3][:6]:
            encoder.encode(w.query, db.plan(w.query).plan)
        assert len(encoder._leaf_cache) <= 5
        assert len(encoder._cache) <= 5
