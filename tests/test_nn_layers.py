"""Layer and optimizer tests for the numpy NN library."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_tape as tape
from repro.nn.layers import (
    Embedding,
    LayerNorm,
    Linear,
    MultiHeadAttention,
    Parameter,
    Sequential,
    TransformerEncoderLayer,
    mlp,
)
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.serialization import load_state_dict, save_state_dict


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(4, 3, rng=rng)
        out, _ = layer(rng.standard_normal((5, 4)))
        assert out.shape == (5, 3)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, rng=rng, bias=False)
        assert layer.bias is None
        out, _ = layer(np.zeros((2, 4)))
        np.testing.assert_allclose(out, 0.0)

    def test_gradients_flow_to_params(self, rng):
        layer = Linear(4, 3, rng=rng)
        out, pullback = layer(rng.standard_normal((5, 4)))
        assert pullback(np.ones(out.shape)).shape == (5, 4)
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_batched_3d_input(self, rng):
        layer = Linear(4, 3, rng=rng)
        out, _ = layer(rng.standard_normal((2, 5, 4)))
        assert out.shape == (2, 5, 3)

    def test_unknown_init_scheme_raises(self, rng):
        with pytest.raises(ValueError):
            Linear(2, 2, rng=rng, init_scheme="bogus")


class TestEmbedding:
    def test_lookup(self, rng):
        emb = Embedding(10, 4, rng=rng)
        out, _ = emb(np.array([1, 2, 1]))
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out[0], out[2])

    def test_out_of_range_raises(self, rng):
        emb = Embedding(5, 4, rng=rng)
        with pytest.raises(IndexError):
            emb(np.array([5]))

    def test_gradient_accumulates_for_repeated_ids(self, rng):
        emb = Embedding(4, 2, rng=rng)
        out, pullback = emb(np.array([1, 1]))
        pullback(np.ones(out.shape))
        np.testing.assert_allclose(emb.weight.grad[1], [2.0, 2.0])
        np.testing.assert_allclose(emb.weight.grad[0], [0.0, 0.0])

    def test_multi_dim_ids(self, rng):
        emb = Embedding(6, 3, rng=rng)
        out, _ = emb(np.zeros((2, 5), dtype=np.int64))
        assert out.shape == (2, 5, 3)


class TestEmbeddingScatter:
    """The pullback (a bincount scatter) against ``np.add.at``."""

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
        out, pullback = emb(ids)
        assert out.shape == shape + (4,)
        assert np.array_equal(out, emb.weight.data[ids])
        pullback(upstream)
        assert np.array_equal(emb.weight.grad, self.oracle(6, ids, upstream))

    def test_backward_takes_a_non_contiguous_gradient(self, rng):
        """A caller may hand the pullback a slice of one wide array."""
        emb = Embedding(5, 3, rng=rng)
        ids = np.array([[4, 4, 0], [1, 4, 0]])
        wide = rng.standard_normal((2, 3, 9))
        upstream = wide[..., 3:6]
        assert not upstream.flags.c_contiguous
        emb(ids)[1](upstream)
        assert np.array_equal(emb.weight.grad, self.oracle(5, ids, upstream))

    def test_is_one_tape_node_and_two_uses_accumulate(self, rng):
        """One pullback per lookup; two lookups' gradients add up, the
        first copied and the second added in place."""
        emb = Embedding(5, 3, rng=rng)
        a, b = np.array([1, 1, 3]), np.array([[3, 0]])
        (left, left_back), (right, right_back) = emb(a), emb(b)
        upstream = np.ones(left.shape)
        left_back(upstream)
        assert not np.shares_memory(emb.weight.grad, upstream)
        right_back(np.full(right.shape, 2.0))
        expected = self.oracle(5, a, np.ones((3, 3))) + self.oracle(5, b, np.full((1, 2, 3), 2.0))
        assert np.array_equal(emb.weight.grad, expected)

    @pytest.mark.parametrize("bad", [[5], [-1], [[0, 2], [7, 1]]])
    def test_out_of_range_raises_before_anything_is_built(self, rng, bad):
        emb = Embedding(5, 4, rng=rng)
        with pytest.raises(IndexError):
            emb(np.array(bad))
        assert emb.weight.grad is None


class TestLayerNorm:
    def test_normalizes_last_dim(self, rng):
        layer = LayerNorm(8)
        out, _ = layer(rng.standard_normal((4, 8)) * 10 + 5)
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_gradcheck(self, rng):
        layer = LayerNorm(4)
        out, pullback = layer(rng.standard_normal((2, 4)))
        grad = pullback(2.0 * out)  # of (out ** 2).sum()
        assert np.isfinite(grad).all() and np.isfinite(layer.gamma.grad).all()


class TestAttention:
    def test_mask_blocks_information(self, rng):
        """A fully-blocked pair must not influence each other's output."""
        attn = MultiHeadAttention(8, 2, rng=rng)
        x = rng.standard_normal((3, 8))
        mask = np.eye(3, dtype=bool)  # only self-attention
        out1 = attn(*pack(x, mask)[:2])[0]
        x_perturbed = x.copy()
        x_perturbed[2] += 100.0
        out2 = attn(*pack(x_perturbed, mask)[:2])[0]
        np.testing.assert_allclose(out1[0], out2[0], atol=1e-8)

    def test_batched_matches_single(self, rng):
        attn = MultiHeadAttention(8, 2, rng=rng)
        x = rng.standard_normal((2, 4, 8))
        mask = np.ones((2, 4, 4), dtype=bool)
        batched = attn(*pack(x, mask)[:2])[0].reshape(2, 4, 8)
        single = attn(*pack(x[1], mask[1])[:2])[0]
        np.testing.assert_allclose(batched[1], single, atol=1e-10)

    def test_dim_head_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3, rng=rng)

    def test_encoder_layer_shapes(self, rng):
        layer = TransformerEncoderLayer(8, 2, 16, rng=rng)
        out, _ = layer(rng.standard_normal((5, 8)), [(1, 5, None)])
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


def pack(x, mask):
    """An unpacked input — (nodes, dim), or batched (batch, nodes, dim) — and
    its boolean mask (True where a pair may attend) as a packed one: the
    token matrix, its single segment, and the batch size to restore
    (``None`` if ``x`` was not batched)."""
    additive = None
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        additive = np.where(mask if mask.ndim == 3 else mask[None], 0.0, -1e9)[:, None, :, :]
    if x.ndim == 2:
        return x, [(1, x.shape[0], additive)], None
    batch, nodes, dim = x.shape
    return x.reshape(batch * nodes, dim), [(batch, nodes, additive)], batch


def assert_rows_parity(block, x, mask, rows=1):
    """``block(x, rows=rows)`` against ``block(x)[..., :rows, :]``: values,
    and every gradient under an upstream gradient that is zero outside the
    leading positions; and the leading-rows forward and pullback against the
    tape, bitwise.

    The value checks allow GEMM blocking (``rows`` changes the score
    GEMM's shape): a relative tolerance plus an absolute floor scaled to
    the largest entry, as the gradient check below has."""
    up_rng = np.random.default_rng(x.size)
    kept = min(rows, x.shape[-2])
    packed, segments, batch = pack(x, mask)

    def unpacked(a):
        return a if batch is None else a.reshape(batch, -1, DIM)

    full, full_back = block(packed, segments)
    head, head_back = block(packed, segments, rows)
    assert unpacked(head).shape == x.shape[:-2] + (kept, DIM)
    np.testing.assert_allclose(
        unpacked(head), unpacked(full)[..., :kept, :], rtol=1e-12, atol=1e-12 * np.abs(full).max()
    )

    upstream = up_rng.standard_normal(head.shape)
    padded = np.zeros(unpacked(full).shape)
    padded[..., :kept, :] = unpacked(upstream)
    block.zero_grad()
    ref = {"<input>": full_back(padded.reshape(full.shape))}
    ref.update((name, p.grad) for name, p in block.named_parameters())
    block.zero_grad()
    got = {"<input>": head_back(upstream)}
    got.update((name, p.grad) for name, p in block.named_parameters())
    # k_proj.bias has an exactly-zero gradient (softmax ignores a shift), so
    # it is round-off on both sides: an absolute floor scaled to the largest
    # entry, as tests/test_core_aam.py uses.
    floor = 1e-12 * max(np.abs(g).max() for g in ref.values())
    for name, expected in ref.items():
        np.testing.assert_allclose(got[name], expected, rtol=1e-9, atol=floor, err_msg=name)

    L = tape.Leaves(block)
    leaf = tape.Tensor(packed.copy(), requires_grad=True)
    taped_block = tape.attention if isinstance(block, MultiHeadAttention) else tape.encoder_layer
    taped = taped_block(L, block, leaf, segments, rows)
    taped.backward(upstream)
    assert np.array_equal(head, taped.data)  # one forward == tape, bitwise
    assert np.array_equal(got["<input>"], leaf.grad)
    for name, expected in L.grads().items():
        assert np.array_equal(got[name], expected), name


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
        """A segment whose rows share one mask may carry one ``(1, 1, n,
        n)`` term, broadcast over its rows: the same values as every row's
        own copy."""
        block = make_block(kind)
        x = rng.standard_normal((3 * 4, DIM))
        term = np.where(reach_mask(rng, (4, 4), 0.5), 0.0, -1e9)[None, None]
        stacked = np.repeat(term, 3, axis=0)
        from_rows = block(x, [(3, 4, stacked)], rows=1)[0]
        from_term = block(x, [(3, 4, term)], rows=1)[0]
        assert np.array_equal(from_rows, from_term)

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
        x = rng.standard_normal((2, 3))
        np.testing.assert_allclose(model(x)[0], clone(x)[0])

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


class TestOptimizers:
    def _quadratic_problem(self, optimizer_factory, steps=300):
        target = np.array([1.0, -2.0, 0.5])
        param = Parameter(np.zeros(3))
        optimizer = optimizer_factory([param])
        for _ in range(steps):
            optimizer.zero_grad()
            param.accumulate(2.0 * (param.data - target))  # of ((param - target) ** 2).sum()
            optimizer.step()
        return param.data, target

    def test_adam_converges(self):
        result, target = self._quadratic_problem(lambda p: Adam(p, lr=0.05))
        np.testing.assert_allclose(result, target, atol=1e-2)

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=1e-3)

    def test_negative_lr_raises(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=-1.0)

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
