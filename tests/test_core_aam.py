"""AAM tests: state network, pairwise head, asymmetric loss, training."""

from dataclasses import replace
from itertools import groupby
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_tape as tape
from reference_attention import fused_attention
from repro.core.aam import (
    AAMConfig,
    AAMSample,
    AAMTrainer,
    AdvantageModel,
    StateNetwork,
    asymmetric_loss,
    distinct_rows,
    reachability_term,
)
from repro.core.encoding import MAX_FILTERS_PER_NODE, PlanEncoder, left_deep_shape
from reference_tape import Tensor
from repro.nn import functional as F
from repro.nn import layers


@pytest.fixture(scope="module")
def setup(request):
    workload = request.getfixturevalue("job_workload")
    db = workload.database
    encoder = PlanEncoder(db.catalog, max_nodes=40)
    config = AAMConfig(d_model=32, d_embed=8, d_state=32, num_heads=2, num_layers=1, ff_hidden=32, epochs=2)
    rng = np.random.default_rng(5)
    model = AdvantageModel(encoder.num_tables, encoder.num_columns, 40, config=config, rng=rng)
    queries = [w for w in workload.all_queries if w.query.num_tables >= 3][:6]
    encoded = [(w.query, encoder.encode(w.query, db.plan(w.query).plan)) for w in queries]
    return workload, db, encoder, model, encoded


def statevec(model, plan, step):
    """One plan's statevec, through the batch forward."""
    return model.state_network([plan], np.array([step]))[0][0]


class TestStateNetwork:
    def test_statevec_shape(self, setup):
        _, _, _, model, encoded = setup
        vec = statevec(model, encoded[0][1], 0.5)
        assert vec.shape == (32,)

    def test_batch_matches_single(self, setup):
        _, _, _, model, encoded = setup
        plans = [e for _, e in encoded[:3]]
        steps = np.array([0.0, 0.5, 1.0])
        batch = model.state_network(plans, steps)[0]
        single = statevec(model, plans[1], 0.5)
        np.testing.assert_allclose(batch[1], single, atol=1e-10)

    def test_step_changes_statevec(self, setup):
        _, _, _, model, encoded = setup
        a = statevec(model, encoded[0][1], 0.0)
        b = statevec(model, encoded[0][1], 1.0)
        assert not np.allclose(a, b)

    def test_different_plans_different_statevec(self, setup):
        _, _, _, model, encoded = setup
        a = statevec(model, encoded[0][1], 0.0)
        b = statevec(model, encoded[1][1], 0.0)
        assert not np.allclose(a, b)


class TestAdvantageModelHead:
    def test_logits_shape(self, setup):
        _, _, _, model, encoded = setup
        plans = [e for _, e in encoded[:2]]
        logits, _ = model(plans, np.zeros(2), plans, np.ones(2))
        assert logits.shape == (2, 3)

    def test_position_awareness(self, setup):
        """Swapping the pair must change the logits (asymmetric model)."""
        _, _, _, model, encoded = setup
        a, b = encoded[0][1], encoded[1][1]
        fwd = model([a], np.zeros(1), [b], np.zeros(1))[0]
        rev = model([b], np.zeros(1), [a], np.zeros(1))[0]
        assert not np.allclose(fwd, rev)

    def test_predict_score_in_range(self, setup):
        _, _, _, model, encoded = setup
        scores = model.predict_scores([encoded[0][1]], np.zeros(1), [encoded[1][1]], np.full(1, 0.3))
        assert scores.shape == (1,) and scores[0] in (0, 1, 2)


class TestLoadStateDict:
    def test_refused_load_keeps_weights_version_and_statevec_cache(self, setup):
        """A shape mismatch on the last parameter assigns nothing, so the
        weight version and every statevec cached under it stay valid."""
        workload, db, encoder, model, _ = setup
        fresh = AdvantageModel(
            encoder.num_tables, encoder.num_columns, 40,
            config=model.config, rng=np.random.default_rng(8),
        )
        wq = workload.train[0]
        fresh.statevecs_lazy([("q", "p", (wq.query, db.plan(wq.query).plan), 0.0)], encoder)
        before, version, cached = fresh.state_dict(), fresh.version, list(fresh._statevec_cache)
        assert cached
        state = model.state_dict()
        last = list(state)[-1]
        state[last] = np.zeros(state[last].shape + (1,))
        with pytest.raises(ValueError):
            fresh.load_state_dict(state)
        assert fresh.version == version
        assert list(fresh._statevec_cache) == cached
        for name, value in fresh.state_dict().items():
            np.testing.assert_array_equal(value, before[name])


class TestAsymmetricLoss:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[10.0, -10.0, -10.0]])
        good, _ = asymmetric_loss(logits, np.array([0]), 1.0, 4.0, 0.1)
        bad, _ = asymmetric_loss(logits, np.array([2]), 1.0, 4.0, 0.1)
        assert good < bad

    def test_focal_downweights_easy_negatives(self):
        """Higher gamma- shrinks the loss contribution of easy samples."""
        logits = np.array([[3.0, 0.0, 0.0]])
        mild, _ = asymmetric_loss(logits, np.array([0]), 0.0, 0.0, 0.0)
        focal, _ = asymmetric_loss(logits, np.array([0]), 1.0, 4.0, 0.0)
        assert focal < mild

    def test_gradient_flows(self):
        logits = np.random.default_rng(0).standard_normal((4, 3))
        loss, grad = asymmetric_loss(logits, np.array([0, 1, 2, 0]), 1.0, 4.0, 0.1)
        assert grad.shape == logits.shape
        assert np.isfinite(grad).all()
        # the tape's gradient, bitwise
        leaf = Tensor(logits, requires_grad=True)
        taped = tape.asymmetric_loss(leaf, np.array([0, 1, 2, 0]), 1.0, 4.0, 0.1)
        taped.backward()
        assert loss == float(taped.data) and np.array_equal(grad, leaf.grad)

    def test_label_smoothing_penalizes_overconfidence(self):
        confident = np.array([[50.0, -50.0, -50.0]])
        calibrated = np.array([[5.0, -2.0, -2.0]])
        smoothed_conf, _ = asymmetric_loss(confident, np.array([0]), 0.0, 0.0, 0.1)
        smoothed_cal, _ = asymmetric_loss(calibrated, np.array([0]), 0.0, 0.0, 0.1)
        # With smoothing, the extremely confident logits pay on the eps mass.
        assert smoothed_conf > 0.0
        assert np.isfinite(smoothed_cal)


class TestAAMTraining:
    def test_learns_synthetic_ordering(self, setup):
        """The AAM must learn a pairwise rule separable by its inputs: here,
        'plan encodings with more nestloop ops are worse'."""
        _, db, encoder, _, encoded = setup
        rng = np.random.default_rng(3)
        config = AAMConfig(d_model=32, d_embed=8, d_state=32, num_heads=2, num_layers=1, ff_hidden=32, epochs=6, lr=2e-3)
        model = AdvantageModel(encoder.num_tables, encoder.num_columns, 40, config=config, rng=rng)
        trainer = AAMTrainer(model, rng=rng)
        # Two distinct plans per query: label depends on which side is which.
        samples = []
        for query, enc in encoded:
            other = encoded[0][1] if enc is not encoded[0][1] else encoded[1][1]
            samples.append(AAMSample(left=enc, left_step=0.0, right=other, right_step=0.5, label=2))
            samples.append(AAMSample(left=other, left_step=0.5, right=enc, right_step=0.0, label=0))
        metrics = trainer.train(samples * 4)
        assert metrics["accuracy"] >= 0.75

    def test_empty_training_is_noop(self, setup):
        _, _, encoder, model, _ = setup
        trainer = AAMTrainer(model, rng=np.random.default_rng(0))
        metrics = trainer.train([])
        assert metrics["batches"] == 0
        assert (metrics["pairs"], metrics["rows"], metrics["distinct_rows"]) == (0, 0, 0)

    def test_evaluate_range(self, setup):
        _, _, _, model, encoded = setup
        trainer = AAMTrainer(model, rng=np.random.default_rng(0))
        samples = [
            AAMSample(left=encoded[0][1], left_step=0.0, right=encoded[1][1], right_step=0.0, label=0)
        ]
        assert 0.0 <= trainer.evaluate(samples) <= 1.0

    def test_evaluate_scores_in_chunks(self, setup, monkeypatch):
        """An evaluate over more than two minibatches runs no state-network
        forward over more than one minibatch's rows (two plans a pair), and
        its accuracy is the one-shot value."""
        _, _, _, model, encoded = setup
        trainer = AAMTrainer(model, rng=np.random.default_rng(0))
        trainer.config = replace(model.config, minibatch_size=5)
        plans = [enc for _, enc in encoded]
        samples = [
            AAMSample(
                left=plans[i % len(plans)], left_step=0.0,
                right=plans[(3 * i + 1) % len(plans)], right_step=0.5, label=i % 3,
            )
            for i in range(23)
        ]
        predicted = model.predict_scores(
            [s.left for s in samples], np.array([s.left_step for s in samples]),
            [s.right for s in samples], np.array([s.right_step for s in samples]),
        )
        one_shot = float((predicted == [s.label for s in samples]).mean())
        rows = []
        forward = StateNetwork.forward

        def spy(network, batch, steps):
            rows.append(len(batch))
            return forward(network, batch, steps)

        monkeypatch.setattr(StateNetwork, "__call__", spy)  # a module's call is its forward
        assert trainer.evaluate(samples) == one_shot
        assert len(rows) == 5 and max(rows) <= 2 * 5


# ---------------------------------------------------------------------------
# Distinct-row forward: one state-network row per distinct (plan, step), in
# node-count buckets, against the naive two-sided forward it replaced.
# ---------------------------------------------------------------------------
SMALL = dict(d_model=32, d_embed=8, d_state=32, num_heads=2, num_layers=1, ff_hidden=32)
STEPS = (0.0, 1 / 3, 2 / 3, 1.0)


@pytest.fixture(scope="module")
def pool(request):
    """A model factory's first model and 48 expert plans of mixed node counts."""
    workload = request.getfixturevalue("job_workload")
    db = workload.database
    encoder = PlanEncoder(db.catalog, max_nodes=40)

    def make_model(seed, **config):
        return AdvantageModel(
            encoder.num_tables, encoder.num_columns, 40,
            config=AAMConfig(**SMALL, **config), rng=np.random.default_rng(seed),
        )

    queries = workload.all_queries[::2][:48]
    plans = [encoder.encode(w.query, db.plan(w.query).plan) for w in queries]
    assert len({p.num_nodes for p in plans}) >= 5
    return make_model(11), plans, make_model


def naive_forward(L, model, left, left_steps, right, right_steps):
    """The two-sided forward the distinct-row forward replaced, on the
    tape: the state network over each side (test-only oracle)."""
    vec_l = tape.state_network(L, model.state_network, left, left_steps)
    vec_r = tape.state_network(L, model.state_network, right, right_steps)
    return tape.head(L, model, vec_l, vec_r)


def pairwise(statevecs):
    """The distinct-row pairwise forward on the tape, over the taped state
    network ``statevecs(L, network, plans, steps)``."""

    def forward(L, model, left, left_steps, right, right_steps):
        plans, steps, left_index, right_index = distinct_rows(left, left_steps, right, right_steps)
        vecs = statevecs(L, model.state_network, plans, steps)
        return tape.head(L, model, vecs[left_index], vecs[right_index])

    return forward


def parent_statevecs(network, plans, steps):
    """``StateNetwork.statevecs`` as it stood before the grouping was lifted
    into ``forward_bucketed`` (verbatim; test-only oracle)."""
    steps = np.asarray(steps, dtype=np.float64)
    if len(plans) <= 1:
        return network.forward(plans, steps)[0]
    order = sorted(range(len(plans)), key=lambda i: plans[i].num_nodes)
    min_rows = 16
    groups = [[order[0]]]
    for i in order[1:]:
        current = groups[-1]
        if plans[i].num_nodes != plans[current[-1]].num_nodes and len(current) >= min_rows:
            groups.append([i])
        else:
            current.append(i)
    if len(groups) == 1:
        return network.forward(plans, steps)[0]
    out = np.empty((len(plans), network.config.d_state))
    for rows in groups:
        idx = np.array(rows)
        out[idx] = network.forward([plans[i] for i in rows], steps[idx])[0]
    return out


def all_positions_forward(L, network, plans, steps):
    """``StateNetwork.forward`` as it stood on the tape before the last
    encoder layer went root-only and the batch was packed: every row padded
    to the largest, every layer outputs every node, ``final_norm`` runs over
    all of them and the root is read afterwards (test-only oracle; the
    structure rows are read off ``int_block`` and ``left_deep_shape``, and
    every row is zero-padded as the encoder once stored it)."""
    trim = max(p.num_nodes for p in plans)
    ints = np.zeros((len(plans), 6, trim), dtype=np.int64)
    fints = np.zeros((len(plans), 2, trim, MAX_FILTERS_PER_NODE), dtype=np.int64)
    fvals = np.zeros((len(plans), trim, MAX_FILTERS_PER_NODE))
    for row, p in enumerate(plans):
        ints[row, :, : p.num_nodes] = p.int_block
        fints[row, :, : p.num_nodes] = p.fint_block
        fvals[row, : p.num_nodes] = p.filter_vals
    ops, tables, jl, jr, heights, structs = ints.transpose(1, 0, 2)
    fcols, fops = fints.transpose(1, 0, 2, 3)
    attn = np.stack([reach(p, trim) for p in plans])

    node = tape.embedding(L, network.op_embed, ops)                       # (B, N, d)
    table = tape.embedding(L, network.table_embed, tables)
    join_cols = tape.embedding(L, network.column_embed, jl) + tape.embedding(L, network.column_embed, jr)
    fcol_emb = tape.embedding(L, network.column_embed, fcols)             # (B, N, F, d)
    fop_emb = tape.embedding(L, network.pred_op_embed, fops)
    val_term = Tensor(fvals[..., None]) * L[network.value_direction]
    filters = (fcol_emb + fop_emb + val_term).sum(axis=2)
    height = tape.embedding(L, network.height_embed, heights)
    struct = tape.embedding(L, network.struct_embed, structs)

    x = tape.concatenate([node, table, join_cols, filters, height, struct], axis=-1)
    x = tape.linear(L, network.input_proj, x)
    batch, nodes, dim = x.shape
    segments = [(batch, nodes, np.where(attn, 0.0, -1e9)[:, None, :, :])]
    for layer in network.layers:
        x = tape.encoder_layer(L, layer, x.reshape(batch * nodes, dim), segments).reshape(batch, nodes, dim)
    x = tape.layer_norm(L, network.final_norm, x)
    root = x[:, 0, :]
    steps = np.asarray(steps, dtype=np.float64).reshape(-1, 1)
    pooled = tape.concatenate([root, Tensor(steps)], axis=-1)
    return tape.linear(L, network.state_proj, pooled)


def reach(plan, width):
    """``plan``'s reachability mask padded to ``width``: its table count's
    left-deep shape."""
    return left_deep_shape((plan.num_nodes + 1) // 2, width).reach


def loss_and_grads(model, batch, labels):
    """The model's forward and pullback: the loss and every gradient."""
    logits, pullback = model(*batch)
    loss, grad = asymmetric_loss(logits, labels, 1.0, 4.0, 0.1)
    model.zero_grad()
    pullback(grad)
    grads = {name: None if p.grad is None else p.grad.copy() for name, p in model.named_parameters()}
    return loss, grads


def taped_loss_and_grads(model, forward, batch, labels):
    """``forward(L, model, *batch)``, a taped composition, on the tape."""
    L = tape.Leaves(model)
    loss = tape.asymmetric_loss(forward(L, model, *batch), labels, 1.0, 4.0, 0.1)
    loss.backward()
    return float(loss.data), L.grads()


def batch_and_labels(plans, pairs):
    """``pairs``: (left plan index, left step, right plan index, right step)."""
    batch = (
        [plans[l] for l, _, _, _ in pairs], np.array([ls for _, ls, _, _ in pairs]),
        [plans[r] for _, _, r, _ in pairs], np.array([rs for _, _, _, rs in pairs]),
    )
    return batch, np.array([(l + r) % 3 for l, _, r, _ in pairs])


def assert_gradient_parity(model, plans, pairs):
    batch, labels = batch_and_labels(plans, pairs)
    loss, grads = loss_and_grads(model, batch, labels)
    ref_loss, ref_grads = taped_loss_and_grads(model, naive_forward, batch, labels)
    assert_loss_and_grads_close(loss, grads, ref_loss, ref_grads)


def assert_loss_and_grads_close(loss, grads, ref_loss, ref_grads):
    np.testing.assert_allclose(loss, ref_loss, rtol=1e-12)
    assert grads.keys() == ref_grads.keys()
    # Summation order differs, so entries that cancel to zero (the key bias's
    # whole gradient does: softmax ignores a shift) are round-off on both
    # sides; they get an absolute floor scaled to the largest gradient entry.
    floor = 1e-12 * max(np.abs(g).max() for g in ref_grads.values() if g is not None)
    for name, ref in ref_grads.items():
        assert (grads[name] is None) == (ref is None), name
        if ref is not None:
            np.testing.assert_allclose(grads[name], ref, rtol=1e-9, atol=floor, err_msg=name)


class TestDistinctRowForward:
    def test_gradient_parity_repeats_orientations_mixed_sizes(self, pool):
        model, plans, _ = pool
        rng = np.random.default_rng(2)
        pairs = []
        for _ in range(30):  # 60 pairs over 48 plans: several buckets, many repeats
            l, r = (int(i) for i in rng.choice(len(plans), size=2, replace=False))
            ls, rs = (STEPS[int(i)] for i in rng.integers(len(STEPS), size=2))
            pairs += [(l, ls, r, rs), (r, rs, l, ls)]
        batch_plans, _, _, _ = distinct_rows(
            [plans[l] for l, _, _, _ in pairs], [ls for _, ls, _, _ in pairs],
            [plans[r] for _, _, r, _ in pairs], [rs for _, _, _, rs in pairs],
        )
        assert len(batch_plans) < 2 * len(pairs)
        sizes = sorted(p.num_nodes for p in batch_plans)
        assert len(batch_plans) > 32 and sizes[0] != sizes[-1]  # more than one bucket
        assert_gradient_parity(model, plans, pairs)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 47), st.sampled_from(STEPS), st.integers(0, 47), st.sampled_from(STEPS)
            ),
            min_size=1,
            max_size=40,
        )
    )
    @example([(3, 0.0, 9, 1.0)])                                   # one pair
    @example([(5, 0.0, 5, 0.0)] * 7)                               # all the same plan
    @example([(i, 0.0, 47 - i, 1.0) for i in range(24)])           # all distinct
    @example([(i, s, i, s) for i in range(4) for s in STEPS] + [(47, 0.0, 0, 0.0)])  # 16 rows + a lone big one
    def test_gradient_parity_drawn_duplicate_patterns(self, pool, pairs):
        model, plans, _ = pool
        by_size = sorted(plans, key=lambda p: p.num_nodes)
        assert_gradient_parity(model, by_size, pairs)

    def test_inference_scores_equal_naive_forward(self, pool):
        """Hard scores are equal; logits only to rounding, because BLAS blocks
        a row's dot products differently for different batch shapes (one
        padded forward and the same plan alone already differ by ~1e-15)."""
        model, plans, _ = pool
        rng = np.random.default_rng(4)
        left = [plans[int(i)] for i in rng.integers(len(plans), size=90)]
        right = [plans[int(i)] for i in rng.integers(len(plans), size=90)]
        ls = rng.choice(STEPS, size=90)
        rs = rng.choice(STEPS, size=90)
        logits = model.forward(left, ls, right, rs)[0]
        naive = naive_forward(tape.Leaves(model), model, left, ls, right, rs).data
        np.testing.assert_allclose(logits, naive, rtol=1e-12, atol=1e-14)
        assert np.array_equal(
            model.predict_scores(left, ls, right, rs), np.argmax(naive, axis=-1)
        )
        assert model.predict_scores(left[:1], ls[:1], right[:1], rs[:1])[0] == int(np.argmax(naive[0]))

    @pytest.mark.parametrize("size", [1, 2, 15, 17, 48, 96])
    def test_statevecs_bitwise_equal_to_parent_grouping(self, pool, size):
        model, plans, _ = pool
        rng = np.random.default_rng(size)
        batch = [plans[int(i)] for i in rng.integers(len(plans), size=size)]
        steps = rng.choice(STEPS, size=size)
        out = model.state_network(batch, steps)[0]
        assert out.shape == (size, SMALL["d_state"])
        ref = parent_statevecs(model.state_network, batch, steps)
        if size == 1:
            assert np.array_equal(out, ref)
        else:  # one packed forward against the same rows in several: GEMMs block by T
            np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-14)

    def test_rows_are_distinct_plan_step_pairs(self, pool):
        model, plans, _ = pool
        a, b = plans[0], plans[1]
        # the same plan at two steps is two rows; (a, 0.5) on both sides is one
        row_plans, steps, left_index, right_index = distinct_rows(
            [a, a, b], [0.0, 0.5, 0.5], [b, a, a], [0.5, 0.5, 0.0]
        )
        assert [id(p) for p in row_plans] == [id(a), id(a), id(b)]
        assert steps.tolist() == [0.0, 0.5, 0.5]
        assert left_index.tolist() == [0, 1, 2]
        assert right_index.tolist() == [2, 1, 0]
        before = model.rows_forwarded
        model.forward([a, a, b], [0.0, 0.5, 0.5], [b, a, a], [0.5, 0.5, 0.0])
        assert model.rows_forwarded - before == 3


def sixty_pairs(plans):
    """Both orientations of 30 drawn pairs: several buckets, many repeats."""
    rng = np.random.default_rng(2)
    pairs = []
    for _ in range(30):
        l, r = (int(i) for i in rng.choice(len(plans), size=2, replace=False))
        ls, rs = (STEPS[int(i)] for i in rng.integers(len(STEPS), size=2))
        pairs += [(l, ls, r, rs), (r, rs, l, ls)]
    return pairs


def resized_model(template, seed, **config):
    """A fresh model over ``template``'s vocabulary with ``SMALL`` overridden."""
    net = template.state_network
    return AdvantageModel(
        net.table_embed.num_embeddings, net.column_embed.num_embeddings, net.max_nodes,
        config=AAMConfig(**{**SMALL, **config}), rng=np.random.default_rng(seed),
    )


class TestRootOnlyLastLayer:
    """The last encoder layer computes the root's position alone; the oracle
    computes every position in every layer and reads the root afterwards."""

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_statevecs_loss_and_gradients_equal_all_positions(self, pool, num_layers):
        template, plans, _ = pool
        model = resized_model(template, 13, num_layers=num_layers)
        network = model.state_network
        batch, labels = batch_and_labels(plans, sixty_pairs(plans))
        rows, row_steps, _, _ = distinct_rows(*batch)
        assert len(rows) > 32  # more than one bucket

        vecs = network(rows, row_steps)[0]
        taped = tape.state_network(tape.Leaves(network), network, rows, row_steps).data
        loss, grads = loss_and_grads(model, batch, labels)
        # the same rows, every position computed
        ref_vecs = all_positions_forward(tape.Leaves(network), network, rows, row_steps).data
        ref_loss, ref_grads = taped_loss_and_grads(model, pairwise(all_positions_forward), batch, labels)

        assert np.array_equal(vecs, taped)  # tape == forward, bitwise
        np.testing.assert_allclose(vecs, ref_vecs, rtol=1e-12, atol=1e-15)
        assert_loss_and_grads_close(loss, grads, ref_loss, ref_grads)

    def test_last_layer_does_no_work_for_other_positions(self, pool, op_spy):
        """A guard that cannot drift back: sized by what the dense layers
        and attention write, against the padded all-positions forward."""
        template, plans, _ = pool
        model = resized_model(template, 17, num_layers=2, d_model=64, ff_hidden=128)
        network = model.state_network
        big = [p for p in plans if p.num_nodes >= 15][:16]
        assert len(big) == 16
        steps = np.zeros(16)
        tokens = sum(p.num_nodes for p in big)  # packed: no padding to the largest
        with op_spy.record() as ops:
            network(big, steps)
        written = ops.bytes(F.linear)
        attention = ops.bytes(F.attend_segments)
        assert ops.calls(F.attend_segments) == 2
        with op_spy.record() as ops:
            all_positions_forward(tape.Leaves(network), network, big, steps)
        all_positions = ops.bytes(F.linear)
        assert written < 0.75 * all_positions  # sized 0.67
        token = 64 * 8  # d_model float64s
        assert attention == tokens * token + 16 * token  # every token, then 16 roots

    def test_kernel_last_layer_queries_the_roots_alone(self, pool, monkeypatch):
        """The forward is sized by the query rows it hands the attention
        function: every token in the first layer, one root per row in the
        last."""
        template, plans, _ = pool
        model = resized_model(template, 17, num_layers=2, d_model=64, ff_hidden=128)
        network = model.state_network
        big = [p for p in plans if p.num_nodes >= 15][:16]
        tokens = sum(p.num_nodes for p in big)
        seen = []

        def recording(qd, kd, vd, segments, heads, scale, lead):
            seen.append((qd.shape[0], kd.shape[0], lead))
            return F.attend_segments(qd, kd, vd, segments, heads, scale, lead)

        monkeypatch.setattr(layers, "attend_segments", recording)
        network(big, np.zeros(len(big)))
        assert seen == [(tokens, tokens, None), (len(big), tokens, 1)]


# ---------------------------------------------------------------------------
# Packed forward: one (T, d_model) token matrix per batch, attention per
# node-count segment, against the padded all-positions forward it replaced.
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def packed_pool(request, pool):
    """``pool``'s model and plans plus a one-table plan (a single node), and
    the plan indices grouped by node count."""
    model, plans, _ = pool
    db = request.getfixturevalue("job_workload").database
    encoder = PlanEncoder(db.catalog, max_nodes=40)
    query = db.sql("SELECT COUNT(*) FROM title AS t WHERE t.production_year > 2000", name="one_table")
    plans = plans + [encoder.encode(query, db.plan(query).plan)]
    assert plans[-1].num_nodes == 1
    by_count = {}
    for i, plan in enumerate(plans):
        by_count.setdefault(plan.num_nodes, []).append(i)
    return model, plans, by_count


ROWS = st.lists(st.tuples(st.integers(0, 48), st.sampled_from(STEPS)), min_size=1, max_size=96)


class TestPackedForward:
    def check(self, packed_pool, rows):
        """Statevecs, pairwise loss and every gradient against the padded
        oracle; forward == tape bitwise; a permuted batch permutes its rows."""
        model, plans, _ = packed_pool
        network = model.state_network
        batch = [plans[i] for i, _ in rows]
        steps = np.array([s for _, s in rows])

        vecs = network(batch, steps)[0]
        assert vecs.shape == (len(rows), SMALL["d_state"])
        assert np.array_equal(tape.state_network(tape.Leaves(network), network, batch, steps).data, vecs)
        ref_vecs = all_positions_forward(tape.Leaves(network), network, batch, steps).data
        np.testing.assert_allclose(vecs, ref_vecs, rtol=1e-12, atol=1e-14)

        perm = np.random.default_rng(len(rows)).permutation(len(rows))
        permuted = network([batch[i] for i in perm], steps[perm])[0]
        np.testing.assert_allclose(permuted, vecs[perm], rtol=1e-12, atol=1e-14)

        # row i against row -1-i: every row on both sides, repeats included
        pairs = [(i, s, rows[-1 - k][0], rows[-1 - k][1]) for k, (i, s) in enumerate(rows)]
        pair_batch, labels = batch_and_labels(plans, pairs)
        loss, grads = loss_and_grads(model, pair_batch, labels)
        ref_loss, ref_grads = taped_loss_and_grads(
            model, pairwise(all_positions_forward), pair_batch, labels
        )
        assert_loss_and_grads_close(loss, grads, ref_loss, ref_grads)

    @settings(max_examples=20, deadline=None)
    @given(ROWS)
    @example([(7, 0.0)])                                       # a batch of one
    @example([(48, 1.0)])                                      # the one-table plan alone
    @example([(5, 0.0)] * 7 + [(5, 1.0)] * 2)                  # repeated plans
    @example([(48, 0.0), (3, 1 / 3), (48, 2 / 3), (46, 1.0)])  # one node among big plans
    def test_drawn_batches_equal_padded_forward(self, packed_pool, rows):
        self.check(packed_pool, rows)

    def test_all_rows_one_node_count(self, packed_pool):
        _, _, by_count = packed_pool
        same = max(by_count.values(), key=len)
        assert len(same) >= 5
        self.check(packed_pool, [(i, STEPS[k % 4]) for k, i in enumerate(same)])

    def test_every_row_a_different_node_count(self, packed_pool):
        _, _, by_count = packed_pool
        assert len(by_count) >= 12
        self.check(packed_pool, [(group[0], 0.5) for group in by_count.values()][::-1])

    def test_ninety_six_rows(self, packed_pool):
        rng = np.random.default_rng(96)
        self.check(packed_pool, [(int(i), STEPS[int(i) % 4]) for i in rng.integers(49, size=96)])

    def test_taped_forward_pushes_real_tokens_only(self, packed_pool, op_spy):
        """Dead-work guard, sized by what ``linear`` writes: every
        projection sees the batch's real tokens — no padding, one forward."""
        template, plans, _ = packed_pool
        config = dict(num_layers=2, d_model=64, ff_hidden=128, d_state=32)
        network = resized_model(template, 19, **config).state_network
        batch = plans[::3]
        rows, tokens = len(batch), sum(p.num_nodes for p in batch)
        assert tokens < rows * max(p.num_nodes for p in batch)
        with op_spy.record() as ops:
            network(batch, np.zeros(rows))
        d, ff = config["d_model"], config["ff_hidden"]
        every_token = d + (4 * d + ff + d) + 2 * d  # input_proj, a full layer, last layer's k and v
        roots_only = 2 * d + ff + d + config["d_state"]  # last layer's q, out, ff; state_proj
        assert ops.bytes(F.linear) == 8 * (tokens * every_token + rows * roots_only)
        assert ops.calls(F.linear) == 1 + 6 + 6 + 1
        assert ops.calls(F.attend_segments) == 2

    @pytest.mark.parametrize("lead", [None, 1])
    def test_segment_kernel_equals_fused_attention_per_segment(self, lead):
        rng = np.random.default_rng(31)
        heads, head_dim = 2, 3
        shapes = [(3, 5), (2, 7), (1, 1)]  # (rows, nodes) per segment
        segments = []
        for rows, nodes in shapes:
            reach = rng.random((rows, 1, nodes, nodes)) < 0.6
            reach |= np.eye(nodes, dtype=bool)
            segments.append((rows, nodes, np.where(reach, 0.0, -1e9)))
        segments[-1] = (1, 1, None)
        tokens = sum(r * n for r, n in shapes)
        queries = tokens if lead is None else sum(r for r, _ in shapes)
        qd = rng.normal(size=(queries, heads * head_dim))
        kd, vd = (rng.normal(size=(tokens, heads * head_dim)) for _ in range(2))
        seed = rng.normal(size=qd.shape)

        q, k, v = (Tensor(a.copy(), requires_grad=True) for a in (qd, kd, vd))
        out = tape.segment_attention(q, k, v, segments, heads, 0.5, lead)
        (out * Tensor(seed)).sum().backward()
        fast, _ = F.attend_segments(qd, kd, vd, segments, heads, 0.5, lead)
        assert np.array_equal(fast, out.data)

        def split(data, start, rows, nodes):  # (rows, heads, nodes, head_dim), contiguous
            block = data[start : start + rows * nodes].reshape(rows, nodes, heads, head_dim)
            return np.ascontiguousarray(block.transpose(0, 2, 1, 3))

        def merge(block):  # back to (rows * nodes, dim)
            return block.transpose(0, 2, 1, 3).reshape(-1, heads * head_dim)

        q_start = k_start = 0
        for rows, nodes, additive in segments:
            m = nodes if lead is None else 1
            if additive is not None:
                additive = additive[:, :, :m, :]
            parts = [
                Tensor(split(qd, q_start, rows, m), requires_grad=True),
                Tensor(split(kd, k_start, rows, nodes), requires_grad=True),
                Tensor(split(vd, k_start, rows, nodes), requires_grad=True),
            ]
            ref = fused_attention(*parts, additive, 0.5)
            (ref * Tensor(split(seed, q_start, rows, m))).sum().backward()
            q_stop, k_stop = q_start + rows * m, k_start + rows * nodes
            close = dict(rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(out.data[q_start:q_stop], merge(ref.data), **close)
            np.testing.assert_allclose(q.grad[q_start:q_stop], merge(parts[0].grad), **close)
            np.testing.assert_allclose(k.grad[k_start:k_stop], merge(parts[1].grad), **close)
            np.testing.assert_allclose(v.grad[k_start:k_stop], merge(parts[2].grad), **close)
            q_start, k_start = q_stop, k_stop


def stacked_layout(plans):
    """``StateNetwork._layout`` as it stood before a segment's reachability
    term came from its node count: every row's own mask stacked and turned
    into a ``(rows, 1, nodes, nodes)`` term (verbatim but for each row's
    mask, read off ``left_deep_shape``; test-only oracle)."""
    counts = [p.num_nodes for p in plans]
    order = sorted(range(len(plans)), key=counts.__getitem__)
    ordered = [plans[i] for i in order]
    segments = []
    for nodes, run in groupby(ordered, key=attrgetter("num_nodes")):
        run = list(run)
        mask = np.empty((len(run), nodes, nodes), dtype=bool)
        for slot, plan in zip(mask, run):
            slot[...] = reach(plan, nodes)
        segments.append((len(run), nodes, np.where(mask, 0.0, -1e9)[:, None, :, :]))
    return (
        order, segments,
        np.concatenate([p.int_block for p in ordered], axis=1),
        np.concatenate([p.fint_block for p in ordered], axis=1),
        np.concatenate([p.filter_vals for p in ordered]),
    )


class TestReachabilityTerm:
    """A segment's additive term is one ``(1, 1, n, n)`` array per node
    count, broadcast over its rows; the oracle stacks every row's mask."""

    @pytest.mark.parametrize("num_layers", [0, 1, 2])
    def test_broadcast_term_equals_stacked_masks(self, packed_pool, monkeypatch, num_layers):
        template, plans, _ = packed_pool
        network = resized_model(template, 23, num_layers=num_layers).state_network
        rng = np.random.default_rng(num_layers)
        picks = [int(i) for i in rng.integers(len(plans), size=40)] + [len(plans) - 1]
        batch = [plans[i] for i in picks]
        steps = np.array([STEPS[i % 4] for i in picks])
        assert len({p.num_nodes for p in batch}) >= 8 and len(batch) > len(set(picks))

        _, segments, *_ = network._layout(batch)
        for _, nodes, term in segments:
            assert term.shape == (1, 1, nodes, nodes) and not term.flags.writeable
            assert term is reachability_term(nodes)
        vecs = network(batch, steps)[0]
        taped = tape.state_network(tape.Leaves(network), network, batch, steps).data
        assert np.array_equal(vecs, taped)
        monkeypatch.setattr(network, "_layout", stacked_layout)
        assert np.array_equal(vecs, network(batch, steps)[0])
        assert np.array_equal(taped, tape.state_network(tape.Leaves(network), network, batch, steps).data)


class TestTrainBookkeeping:
    @pytest.fixture()
    def trained(self, pool):
        _, plans, make_model = pool
        fresh = make_model(1, epochs=2, minibatch_size=16)
        rng = np.random.default_rng(8)
        samples = []
        for _ in range(35):  # both orientations of 35 pairs over 12 plans
            l, r = (int(i) for i in rng.choice(12, size=2, replace=False))
            ls, rs = (STEPS[int(i)] for i in rng.integers(len(STEPS), size=2))
            samples.append(AAMSample(plans[l], ls, plans[r], rs, label=2))
            samples.append(AAMSample(plans[r], rs, plans[l], ls, label=0))
        fresh._statevec_cache.put((0, "q", "p", 0.0), np.zeros(SMALL["d_state"]))
        trainer = AAMTrainer(fresh, rng=np.random.default_rng(21))
        return fresh, trainer, samples, trainer.train(samples)

    def test_train_leaves_version_cache_batches_and_rng_as_before(self, trained):
        model, trainer, samples, metrics = trained
        assert model.version == 1
        assert len(model._statevec_cache) == 0
        assert metrics["batches"] == 2 * 5  # 70 pairs in minibatches of 16, twice
        twin = np.random.default_rng(21)
        for _ in range(2):
            twin.permutation(len(samples))
        assert trainer.rng.bit_generator.state == twin.bit_generator.state

    def test_statevec_served_mid_training_does_not_answer_after(self, pool, monkeypatch):
        """A reader that asks for statevecs between minibatches gets them
        from half-trained weights; once ``train`` returns, those entries
        must not answer for the trained model."""
        _, plans, make_model = pool
        model = make_model(1, epochs=2, minibatch_size=16)
        samples = [AAMSample(plans[i], 0.0, plans[i + 1], 1 / 3, label=i % 3) for i in range(40)]

        class Encoded:  # an encoder over plans that are encoded already
            @staticmethod
            def encode_many(pairs):
                return [plan for _, plan in pairs]

        items = [("q", f"p{i}", (None, plans[i]), 0.0) for i in range(4)]
        trainer = AAMTrainer(model, rng=np.random.default_rng(21))
        step = trainer._step

        def serve_then_step(chunk):
            model.statevecs_lazy(items, Encoded)
            return step(chunk)

        monkeypatch.setattr(trainer, "_step", serve_then_step)
        trainer.train(samples)
        served = model.statevecs_lazy(items, Encoded)
        assert np.array_equal(served, model.state_network(plans[:4], np.zeros(4))[0])

    def test_metrics_count_rows_exactly(self, trained):
        _, _, samples, metrics = trained
        twin = np.random.default_rng(21)
        recount = 0
        for _ in range(2):
            order = twin.permutation(len(samples))
            for start in range(0, len(samples), 16):
                chunk = [samples[i] for i in order[start : start + 16]]
                recount += len(
                    {(id(s.left), s.left_step) for s in chunk}
                    | {(id(s.right), s.right_step) for s in chunk}
                )
        assert metrics["pairs"] == 70
        assert metrics["rows"] == 2 * 70 * 2
        assert metrics["distinct_rows"] == recount
        assert recount < metrics["rows"]
