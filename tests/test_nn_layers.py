"""Layer and optimizer tests for the numpy NN library."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.nn.layers import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Lookup,
    MultiHeadAttention,
    Parameter,
    Sequential,
    TransformerEncoderLayer,
    _pack,
    mlp,
)
from repro.nn.optim import SGD, Adam, clip_grad_norm
from repro.nn.serialization import load_state_dict, save_state_dict
from repro.nn.tensor import Tensor


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(4, 3, rng=rng)
        out = layer(Tensor(rng.standard_normal((5, 4))))
        assert out.shape == (5, 3)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, rng=rng, bias=False)
        assert layer.bias is None
        out = layer(Tensor(np.zeros((2, 4))))
        np.testing.assert_allclose(out.data, 0.0)

    def test_gradients_flow_to_params(self, rng):
        layer = Linear(4, 3, rng=rng)
        layer(Tensor(rng.standard_normal((5, 4)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_batched_3d_input(self, rng):
        layer = Linear(4, 3, rng=rng)
        out = layer(Tensor(rng.standard_normal((2, 5, 4))))
        assert out.shape == (2, 5, 3)

    def test_unknown_init_scheme_raises(self, rng):
        with pytest.raises(ValueError):
            Linear(2, 2, rng=rng, init_scheme="bogus")


class TestEmbedding:
    def test_lookup(self, rng):
        emb = Embedding(10, 4, rng=rng)
        out = emb(np.array([1, 2, 1]))
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out.data[0], out.data[2])

    def test_out_of_range_raises(self, rng):
        emb = Embedding(5, 4, rng=rng)
        with pytest.raises(IndexError):
            emb(np.array([5]))

    def test_gradient_accumulates_for_repeated_ids(self, rng):
        emb = Embedding(4, 2, rng=rng)
        emb(np.array([1, 1])).sum().backward()
        np.testing.assert_allclose(emb.weight.grad[1], [2.0, 2.0])
        np.testing.assert_allclose(emb.weight.grad[0], [0.0, 0.0])

    def test_multi_dim_ids(self, rng):
        emb = Embedding(6, 3, rng=rng)
        out = emb(np.zeros((2, 5), dtype=np.int64))
        assert out.shape == (2, 5, 3)


class TestEmbeddingScatter:
    """The one-node backward (a bincount scatter) against ``np.add.at``."""

    @staticmethod
    def oracle(num, ids, upstream):
        full = np.zeros((num, upstream.shape[-1]))
        np.add.at(full, ids, upstream)
        return full

    @pytest.mark.parametrize(
        "shape", [(7,), (4, 5), (3, 4, 3), (0,), (0, 5)], ids=str
    )
    def test_backward_equals_add_at(self, rng, shape):
        emb = Embedding(6, 4, rng=rng)  # 6 rows, up to 36 tokens: ids repeat
        ids = rng.integers(0, 6, size=shape)
        upstream = rng.standard_normal(shape + (4,))
        out = emb(ids)
        assert out.shape == shape + (4,)
        assert np.array_equal(out.data, emb.weight.data[ids])
        out.backward(upstream)
        assert np.array_equal(emb.weight.grad, self.oracle(6, ids, upstream))

    def test_backward_takes_a_non_contiguous_gradient(self, rng):
        """``concatenate`` hands each embedding a slice of one wide array."""
        emb = Embedding(5, 3, rng=rng)
        ids = np.array([[4, 4, 0], [1, 4, 0]])
        wide = rng.standard_normal((2, 3, 9))
        upstream = wide[..., 3:6]
        assert not upstream.flags.c_contiguous
        emb(ids).backward(upstream)
        assert np.array_equal(emb.weight.grad, self.oracle(5, ids, upstream))

    def test_is_one_tape_node_and_two_uses_accumulate(self, rng, op_spy):
        emb = Embedding(5, 3, rng=rng)
        a, b = np.array([1, 1, 3]), np.array([[3, 0]])
        with op_spy.record() as ops:
            left = emb(a)
        assert [cls for cls, _ in ops] == [Lookup] and type(left._ctx) is Lookup
        (left.sum() + (emb(b) * 2.0).sum()).backward()
        expected = self.oracle(5, a, np.ones((3, 3))) + self.oracle(5, b, np.full((1, 2, 3), 2.0))
        assert np.array_equal(emb.weight.grad, expected)

    @pytest.mark.parametrize("bad", [[5], [-1], [[0, 2], [7, 1]]])
    def test_out_of_range_raises_before_anything_is_built(self, rng, bad, op_spy):
        emb = Embedding(5, 4, rng=rng)
        with op_spy.record() as ops:
            with pytest.raises(IndexError):
                emb(np.array(bad))
        assert ops == []
        assert emb.weight.grad is None


class TestLayerNorm:
    def test_normalizes_last_dim(self, rng):
        layer = LayerNorm(8)
        out = layer(Tensor(rng.standard_normal((4, 8)) * 10 + 5)).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_gradcheck(self, rng):
        layer = LayerNorm(4)
        x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        (layer(x) ** 2).sum().backward()
        assert x.grad is not None and np.isfinite(x.grad).all()


class TestAttention:
    def test_mask_blocks_information(self, rng):
        """A fully-blocked pair must not influence each other's output."""
        attn = MultiHeadAttention(8, 2, rng=rng)
        x = rng.standard_normal((3, 8))
        mask = np.eye(3, dtype=bool)  # only self-attention
        out1 = attn(Tensor(x), mask=mask).data
        x_perturbed = x.copy()
        x_perturbed[2] += 100.0
        out2 = attn(Tensor(x_perturbed), mask=mask).data
        np.testing.assert_allclose(out1[0], out2[0], atol=1e-8)

    def test_batched_matches_single(self, rng):
        attn = MultiHeadAttention(8, 2, rng=rng)
        x = rng.standard_normal((2, 4, 8))
        mask = np.ones((2, 4, 4), dtype=bool)
        batched = attn(Tensor(x), mask=mask).data
        single = attn(Tensor(x[1]), mask=mask[1]).data
        np.testing.assert_allclose(batched[1], single, atol=1e-10)

    def test_dim_head_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3, rng=rng)

    def test_encoder_layer_shapes(self, rng):
        layer = TransformerEncoderLayer(8, 2, 16, rng=rng)
        out = layer(Tensor(rng.standard_normal((5, 8))))
        assert out.shape == (5, 8)


# ---------------------------------------------------------------------------
# ``rows``: a layer asked for its leading positions only computes queries,
# score rows, out_proj, residual, norm2 and feed-forward for those, from the
# keys and values of every node.  Exact algebra: position 0 of the full layer.
# ---------------------------------------------------------------------------
DIM, HEADS = 8, 2


def make_block(kind, seed=3):
    rng = np.random.default_rng(seed)
    if kind == "attention":
        return MultiHeadAttention(DIM, HEADS, rng=rng)
    return TransformerEncoderLayer(DIM, HEADS, 16, rng=rng)


def reach_mask(rng, shape, density):
    """A random mask whose diagonal holds, like a reachability mask's."""
    mask = rng.random(shape) < density
    mask |= np.eye(shape[-1], dtype=bool)
    return mask


def assert_rows_parity(block, x, mask, rows=1):
    """``block(x, rows=rows)`` against ``block(x)[..., :rows, :]``: values in
    both modes, the two modes bitwise, and every gradient under an upstream
    gradient that is zero outside the leading positions.

    The value checks allow GEMM blocking (``rows`` changes the score
    GEMM's shape): a relative tolerance plus an absolute floor scaled to
    the largest entry, as the gradient check below has."""
    up_rng = np.random.default_rng(x.size)
    kept = min(rows, x.shape[-2])

    full_in = Tensor(x.copy(), requires_grad=True)
    full = block(full_in, mask=mask)
    head_in = Tensor(x.copy(), requires_grad=True)
    head = block(head_in, mask=mask, rows=rows)
    assert head.shape == x.shape[:-2] + (kept, DIM)
    np.testing.assert_allclose(
        head.data, full.data[..., :kept, :], rtol=1e-12, atol=1e-12 * np.abs(full.data).max()
    )
    packed, segments, batch = _pack(x, mask, None)
    fast, fast_full = block.infer(packed, segments, rows), block.infer(packed, segments)
    if batch is not None:
        fast, fast_full = fast.reshape(batch, -1, DIM), fast_full.reshape(batch, -1, DIM)
    assert np.array_equal(fast, head.data)  # tape == infer, bitwise
    np.testing.assert_allclose(
        fast, fast_full[..., :kept, :], rtol=1e-12, atol=1e-12 * np.abs(fast_full).max()
    )

    upstream = up_rng.standard_normal(head.shape)
    padded = np.zeros(full.shape)
    padded[..., :kept, :] = upstream
    block.zero_grad()
    full.backward(padded)
    ref = {name: p.grad.copy() for name, p in block.named_parameters()}
    ref["<input>"] = full_in.grad.copy()
    block.zero_grad()
    head.backward(upstream)
    got = {name: p.grad for name, p in block.named_parameters()}
    got["<input>"] = head_in.grad
    # k_proj.bias has an exactly-zero gradient (softmax ignores a shift), so
    # it is round-off on both sides: an absolute floor scaled to the largest
    # entry, as tests/test_core_aam.py uses.
    floor = 1e-12 * max(np.abs(g).max() for g in ref.values())
    for name, expected in ref.items():
        np.testing.assert_allclose(got[name], expected, rtol=1e-9, atol=floor, err_msg=name)


@pytest.mark.parametrize("kind", ["attention", "encoder"])
class TestLeadingRowsOnly:
    def test_batched_with_reachability_mask(self, kind, rng):
        x = rng.standard_normal((3, 6, DIM))
        assert_rows_parity(make_block(kind), x, reach_mask(rng, (3, 6, 6), 0.6))

    def test_single_node(self, kind, rng):
        x = rng.standard_normal((4, 1, DIM))
        assert_rows_parity(make_block(kind), x, np.ones((4, 1, 1), dtype=bool))

    def test_fully_masked_out_non_root_node(self, kind, rng):
        """Node 2 attends to nothing and nothing attends to it (padding)."""
        x = rng.standard_normal((2, 5, DIM))
        mask = reach_mask(rng, (2, 5, 5), 0.8)
        mask[:, 2, :] = False
        mask[:, :, 2] = False
        assert_rows_parity(make_block(kind), x, mask)

    def test_batch_of_one(self, kind, rng):
        x = rng.standard_normal((1, 7, DIM))
        assert_rows_parity(make_block(kind), x, reach_mask(rng, (1, 7, 7), 0.5))

    def test_two_dimensional_input(self, kind, rng):
        x = rng.standard_normal((5, DIM))
        assert_rows_parity(make_block(kind), x, reach_mask(rng, (5, 5), 0.5))

    def test_no_mask_and_several_rows(self, kind, rng):
        x = rng.standard_normal((2, 6, DIM))
        assert_rows_parity(make_block(kind), x, None, rows=3)
        assert_rows_parity(make_block(kind), x, None, rows=6)

    def test_precomputed_additive_term(self, kind, rng):
        block = make_block(kind)
        x = rng.standard_normal((3, 4, DIM))
        mask = reach_mask(rng, (3, 4, 4), 0.5)
        additive = np.where(mask, 0.0, -1e9)[:, None, :, :]
        from_mask = block(Tensor(x), mask=mask, rows=1).data
        from_term = block(Tensor(x), mask=mask, additive=additive, rows=1).data
        assert np.array_equal(from_mask, from_term)

    @settings(max_examples=40, deadline=None)
    @given(
        batch=st.integers(1, 4),
        nodes=st.integers(1, 7),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # Fails at rtol=1e-12, atol=0: one entry of ~2e-4 is off by 2.3e-16 (GEMM blocking).
    @example(batch=4, nodes=7, density=0.6961544503408927, seed=369420598)
    def test_drawn_shapes_and_masks(self, kind, batch, nodes, density, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((batch, nodes, DIM))
        assert_rows_parity(make_block(kind), x, reach_mask(rng, (batch, nodes, nodes), density))


class TestModuleInfrastructure:
    def test_parameters_collects_nested(self, rng):
        model = Sequential(Linear(2, 4, rng=rng), Linear(4, 1, rng=rng))
        assert len(model.parameters()) == 4

    def test_state_dict_roundtrip(self, rng, tmp_path):
        model = mlp([3, 8, 2], rng=rng)
        path = str(tmp_path / "weights.npz")
        save_state_dict(model.state_dict(), path)
        clone = mlp([3, 8, 2], rng=np.random.default_rng(99))
        clone.load_state_dict(load_state_dict(path))
        x = Tensor(rng.standard_normal((2, 3)))
        np.testing.assert_allclose(model(x).data, clone(x).data)

    def test_load_state_dict_missing_key_raises(self, rng):
        model = Linear(2, 2, rng=rng)
        with pytest.raises(KeyError):
            model.load_state_dict({})

    def test_load_state_dict_shape_mismatch_raises(self, rng):
        """A mismatch anywhere, the first parameter or the last, raises
        before any parameter is assigned."""
        cases = [
            (Linear(2, 2, rng=rng), Linear(2, 2, rng=np.random.default_rng(9)), 0),
            (
                Sequential(Linear(2, 3, rng=rng), Linear(3, 2, rng=rng)),
                Sequential(
                    Linear(2, 3, rng=np.random.default_rng(9)),
                    Linear(3, 2, rng=np.random.default_rng(10)),
                ),
                -1,
            ),
        ]
        for model, other, position in cases:
            before = model.state_dict()
            state = other.state_dict()
            state[list(state)[position]] = np.zeros((3, 3))
            with pytest.raises(ValueError):
                model.load_state_dict(state)
            for name, value in model.state_dict().items():
                np.testing.assert_array_equal(value, before[name])

    def test_train_eval_propagates(self, rng):
        model = Sequential(Dropout(0.5, rng=rng), Linear(2, 2, rng=rng))
        model.eval()
        assert all(not layer.training for layer in model)

    def test_dropout_identity_in_eval(self, rng):
        drop = Dropout(0.9, rng=rng)
        drop.eval()
        x = Tensor(np.ones((4, 4)))
        np.testing.assert_allclose(drop(x).data, 1.0)

    def test_dropout_scales_in_train(self, rng):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        out = drop(Tensor(np.ones((1000,)))).data
        # Inverted dropout keeps the expectation ~1.
        assert abs(out.mean() - 1.0) < 0.1


class TestOptimizers:
    def _quadratic_problem(self, optimizer_factory, steps=300):
        target = np.array([1.0, -2.0, 0.5])
        param = Parameter(np.zeros(3))
        optimizer = optimizer_factory([param])
        for _ in range(steps):
            loss = ((param - Tensor(target)) ** 2).sum()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        return param.data, target

    def test_sgd_converges(self):
        result, target = self._quadratic_problem(lambda p: SGD(p, lr=0.05))
        np.testing.assert_allclose(result, target, atol=1e-3)

    def test_sgd_momentum_converges(self):
        result, target = self._quadratic_problem(lambda p: SGD(p, lr=0.02, momentum=0.9))
        np.testing.assert_allclose(result, target, atol=1e-3)

    def test_adam_converges(self):
        result, target = self._quadratic_problem(lambda p: Adam(p, lr=0.05))
        np.testing.assert_allclose(result, target, atol=1e-2)

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=1e-3)

    def test_negative_lr_raises(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=-1.0)

    def test_clip_grad_norm_scales(self):
        param = Parameter(np.zeros(4))
        param.grad = np.ones(4) * 10.0
        norm_before = clip_grad_norm([param], max_norm=1.0)
        assert norm_before == pytest.approx(20.0)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0, rel=1e-6)

    def test_clip_grad_norm_noop_below_max(self):
        param = Parameter(np.zeros(2))
        param.grad = np.array([0.1, 0.1])
        clip_grad_norm([param], max_norm=10.0)
        np.testing.assert_allclose(param.grad, [0.1, 0.1])
