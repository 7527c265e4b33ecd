"""The test oracle's autograd engine (``tests/reference_tape.py``):
gradients checked against finite differences, the tape's walk and its
gradient ownership rule."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_tape import CategoricalMasked, Tensor, _sum_to_shape, concatenate, log_softmax, mse_loss, where
from repro.nn import functional as F
from repro.nn.optim import clip_grad_norm


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar fn at x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        out[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build, x0: np.ndarray, atol: float = 1e-5):
    """Compare autograd gradient of build(Tensor) with finite differences."""
    t = Tensor(x0.copy(), requires_grad=True)
    build(t).backward()
    expected = numeric_grad(lambda arr: float(build(Tensor(arr)).data), x0.copy())
    np.testing.assert_allclose(t.grad, expected, atol=atol)


class TestElementwiseGradients:
    def test_add(self):
        check_gradient(lambda t: (t + 3.0).sum(), np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_mul(self):
        check_gradient(lambda t: (t * t).sum(), np.array([1.0, -2.0, 3.0]))

    def test_sub_rsub(self):
        check_gradient(lambda t: (5.0 - t).sum(), np.array([1.0, 2.0]))

    def test_div(self):
        check_gradient(lambda t: (t / 2.0 + 1.0 / t).sum(), np.array([1.0, 2.0, 4.0]))

    def test_pow(self):
        check_gradient(lambda t: (t**3).sum(), np.array([1.0, 2.0, -1.5]))

    def test_exp_log(self):
        check_gradient(lambda t: (t.exp() + (t + 5.0).log()).sum(), np.array([0.3, 1.0]))

    def test_tanh(self):
        check_gradient(lambda t: t.tanh().sum(), np.array([-1.0, 0.0, 2.0]))

    def test_relu_grad_zero_below(self):
        t = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0])

    def test_clip(self):
        t = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])

    def test_sqrt(self):
        check_gradient(lambda t: t.sqrt().sum(), np.array([1.0, 4.0, 9.0]))


class TestMatmulAndShapes:
    def test_matmul_2d(self):
        a = np.random.default_rng(0).standard_normal((3, 4))
        check_gradient(lambda t: (t @ Tensor(np.ones((4, 2)))).sum(), a)

    def test_matmul_batched(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((2, 4, 5))
        x = Tensor(a, requires_grad=True)
        (x @ Tensor(w)).sum().backward()
        expected = numeric_grad(lambda arr: float((arr @ w).sum()), a.copy())
        np.testing.assert_allclose(x.grad, expected, atol=1e-5)

    def test_reshape_roundtrip(self):
        check_gradient(lambda t: (t.reshape(6) ** 2).sum(), np.arange(6, dtype=float).reshape(2, 3))

    def test_transpose(self):
        a = np.random.default_rng(2).standard_normal((2, 3))
        check_gradient(lambda t: (t.T @ Tensor(np.ones((2, 1)))).sum(), a)

    def test_getitem(self):
        t = Tensor(np.arange(6, dtype=float), requires_grad=True)
        t[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 0.0, 1.0, 0.0, 0.0, 0.0])

    def test_broadcast_add_sums_grad(self):
        bias = Tensor(np.zeros(3), requires_grad=True)
        x = Tensor(np.ones((4, 3)))
        (x + bias).sum().backward()
        np.testing.assert_allclose(bias.grad, [4.0, 4.0, 4.0])


class TestReductions:
    def test_sum_axis(self):
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_mean(self):
        check_gradient(lambda t: (t.mean() * 3.0), np.array([1.0, 2.0, 3.0]))

    def test_max_routes_to_argmax(self):
        t = Tensor(np.array([1.0, 5.0, 2.0]), requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])


class TestGraphMechanics:
    def test_no_grad_blocks_graph(self):
        """Without an operand that requires a gradient, an op builds no
        graph: gradients decide, there is no mode."""
        t = Tensor(np.ones(3))
        out = (t * 2).sum()
        assert not out.requires_grad and out._ctx is None
        taped = (Tensor(np.ones(3), requires_grad=True) * 2).sum()
        assert taped.requires_grad and taped._ctx is not None

    def test_grad_accumulates_across_backward(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2).sum().backward()
        (t * 3).sum().backward()
        np.testing.assert_allclose(t.grad, [5.0, 5.0])

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_diamond_graph(self):
        # y = a*b where a = x+1, b = x*2 -> dy/dx = b + 2a = 2x + 2x + 2
        x = Tensor(np.array([3.0]), requires_grad=True)
        a = x + 1.0
        b = x * 2.0
        (a * b).backward()
        np.testing.assert_allclose(x.grad, [4 * 3.0 + 2.0])

    def test_detach_cuts_graph(self):
        """A tensor over another's ``.data`` is a constant: no graph."""
        x = Tensor(np.ones(2), requires_grad=True)
        y = Tensor((x * 2).data)
        assert not y.requires_grad
        (y * x).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 2.0])


# ---------------------------------------------------------------------------
# Gradient ownership: leaves copy the first gradient and add in place;
# interior nodes borrow the first, allocate on the second, and drop theirs
# once their backward has run.  Oracle: the copying ``_accumulate`` this
# replaced, under which every node owned its gradient.
# ---------------------------------------------------------------------------
def copying_accumulate(self, grad):
    """``Tensor._accumulate`` as it stood before borrowing (verbatim)."""
    grad = _sum_to_shape(np.asarray(grad, dtype=np.float64), self.data.shape)
    if self.grad is None:
        self.grad = grad.copy()
    else:
        self.grad += grad


FULL = (3, 4)
LEAF_SHAPES = [(3, 4), (3, 4), (4,), (1, 4), (3, 1)]  # all broadcast to FULL


def _full(t):
    return t if t.shape == FULL else t + Tensor(np.zeros(FULL))


def _repeated_rows(x):
    x = _full(x)
    return x[np.array([0, 0, 2])]


def _concat_slices(x, y):
    # backward hands each input a slice of one gradient array
    return concatenate([_full(x), _full(y)], axis=1)[:, 2:6]


BINARY_OPS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / (y * y + 1.0),
    "concat": _concat_slices,
}
UNARY_OPS = {
    "sum_rows": lambda x: x.sum(axis=0, keepdims=True),  # backward: a read-only broadcast view
    "sum_cols": lambda x: _full(x).sum(axis=1, keepdims=True),
    "mean_all": lambda x: _full(x) * x.mean(),
    "repeat": _repeated_rows,
    "double": lambda x: x + x,
    "three_uses": lambda x: x * x - x / 2.0 + x.tanh(),
}
program = st.lists(
    st.tuples(
        st.sampled_from(sorted(BINARY_OPS) + sorted(UNARY_OPS)),
        st.integers(0, 63),
        st.integers(0, 63),
    ),
    min_size=1,
    max_size=12,
)


def run_program(steps, seed):
    """Build the drawn graph over fresh leaves; returns (leaves, interiors, loss)."""
    rng = np.random.default_rng(seed)
    leaves = [Tensor(rng.uniform(-2.0, 2.0, size=shape), requires_grad=True) for shape in LEAF_SHAPES]
    pool = list(leaves)
    for op, i, j in steps:
        x, y = pool[i % len(pool)], pool[j % len(pool)]
        pool.append(BINARY_OPS[op](x, y) if op in BINARY_OPS else UNARY_OPS[op](x))
    interiors = pool[len(leaves):]
    weights = rng.standard_normal(FULL)
    # read the last three results, so earlier ones are consumed more than once
    loss = sum((_full(t) * Tensor(weights)).sum() for t in interiors[-3:])
    return leaves, interiors, loss


class TestGradientOwnership:
    @settings(max_examples=80, deadline=None)
    @given(program, st.integers(0, 2**16))
    def test_leaf_gradients_equal_the_copying_oracle(self, steps, seed):
        leaves, interiors, loss = run_program(steps, seed)
        loss.backward()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Tensor, "_accumulate", copying_accumulate)
            ref_leaves, _, ref_loss = run_program(steps, seed)
            ref_loss.backward()
        assert np.array_equal(loss.data, ref_loss.data)
        for leaf, ref in zip(leaves, ref_leaves):
            assert (leaf.grad is None) == (ref.grad is None)
            if ref.grad is not None:
                assert np.array_equal(leaf.grad, ref.grad)
                assert leaf.grad.flags.writeable and leaf.grad.flags.owndata
        assert all(t.grad is None for t in interiors)
        assert loss.grad is None
        owned = [leaf.grad for leaf in leaves if leaf.grad is not None]
        for k, a in enumerate(owned):
            assert not any(np.shares_memory(a, b) for b in owned[k + 1:])

    def test_one_upstream_array_reaching_two_leaves_is_scaled_once_each(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        (a + b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        norm = clip_grad_norm([a, b], 1e-3)
        assert norm == pytest.approx(np.sqrt(12.0))
        scale = 1e-3 / np.sqrt(12.0)  # once; a shared array would read scale**2
        np.testing.assert_allclose(a.grad, np.full((2, 3), scale), rtol=1e-9)
        np.testing.assert_allclose(b.grad, np.full((2, 3), scale), rtol=1e-9)

    def test_leaf_reached_by_a_read_only_view_owns_a_writable_copy(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        x.sum().backward()  # sum's backward hands out a broadcast_to view
        assert x.grad.flags.writeable
        x.grad *= 3.0
        np.testing.assert_allclose(x.grad, 3.0)

    def test_callers_gradient_is_neither_written_nor_kept(self):
        seed = np.full((2, 2), 2.0)
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = x * 3.0
        y.backward(seed)  # the interior root borrows ``seed``
        assert np.array_equal(seed, np.full((2, 2), 2.0))
        assert y.grad is None
        x.grad *= 0.0
        leaf = Tensor(np.ones((2, 2)), requires_grad=True)
        leaf.backward(seed)  # a leaf root copies it
        leaf.grad += 1.0
        assert np.array_equal(seed, np.full((2, 2), 2.0))

    def test_two_backward_calls_accumulate_into_leaves(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        shared = a * b
        out = (shared + shared * a).sum()
        out.backward()
        first = a.grad.copy(), b.grad.copy()
        out.backward()  # same graph again: interiors start from nothing
        np.testing.assert_allclose(a.grad, 2 * first[0])
        np.testing.assert_allclose(b.grad, 2 * first[1])
        (a * 5.0).sum().backward()  # another graph into the same leaf
        np.testing.assert_allclose(a.grad, 2 * first[0] + 5.0)

    def test_interior_gradient_is_dropped_after_backward(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        hidden = x * 2.0
        used_twice = hidden + hidden.tanh()
        out = used_twice.sum()
        out.backward()
        assert x.grad is not None
        assert hidden.grad is None and used_twice.grad is None and out.grad is None
        assert "interior" in Tensor.backward.__doc__ and "``None``" in Tensor.backward.__doc__


class TestCombinators:
    def test_concatenate_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        concatenate([a, b], axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, np.ones((2, 3)))

    def test_where_gradient_routes(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        cond = np.array([True, False, True])
        where(cond, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])


class TestFunctional:
    def test_softmax_sums_to_one(self):
        logits = np.random.default_rng(3).standard_normal((4, 5))
        for log_probs in (log_softmax(Tensor(logits)).data, F.log_softmax(logits)[0]):
            np.testing.assert_allclose(np.exp(log_probs).sum(axis=-1), np.ones(4), atol=1e-12)

    def test_log_softmax_stable_for_large_logits(self):
        logits = Tensor(np.array([[1000.0, 0.0]]))
        out = log_softmax(logits).data
        assert np.isfinite(out).all()
        assert np.isfinite(F.log_softmax(logits.data)[0]).all()

    def test_cross_entropy_matches_manual(self):
        """The policy's log-prob of a class is minus its cross-entropy."""
        dist = CategoricalMasked(Tensor(np.array([[2.0, 0.0, 0.0]])))
        loss = -dist.log_prob(np.array([0]))
        manual = -np.log(np.exp(2.0) / (np.exp(2.0) + 2.0))
        assert abs(loss.item() - manual) < 1e-10

    def test_masked_softmax_zeroes_masked(self):
        dist = CategoricalMasked(Tensor(np.zeros((1, 3))), np.array([[True, False, True]]))
        probs = np.exp(dist.log_probs.data)
        assert probs[0, 1] < 1e-6
        np.testing.assert_allclose(probs.sum(), 1.0)

    def test_mse_loss_gradcheck(self):
        target = np.array([1.0, 2.0])
        check_gradient(lambda t: mse_loss(t, target), np.array([0.5, 1.5]))
        loss, grad = F.mse_loss(np.array([0.5, 1.5]), target)
        assert loss == float(mse_loss(Tensor(np.array([0.5, 1.5])), target).data)
        np.testing.assert_allclose(grad, [-0.5, -0.5])

    def test_entropy_uniform_is_log_n(self):
        """Uniform over the legal actions: the entropy is log of their count."""
        mask = np.array([[True, True, True, True], [True, False, True, False]])
        entropy = CategoricalMasked(Tensor(np.zeros((2, 4))), mask).entropy().data
        np.testing.assert_allclose(entropy, [np.log(4), np.log(2)], atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=6),
)
def test_softmax_invariant_to_shift(values):
    logits = np.array(values)
    a = log_softmax(Tensor(logits[None])).data
    b = F.log_softmax(logits[None] + 100.0)[0]
    np.testing.assert_allclose(a, b, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_matmul_shape_property(n, m):
    rng = np.random.default_rng(42)
    a = Tensor(rng.standard_normal((n, m)), requires_grad=True)
    b = Tensor(rng.standard_normal((m, 3)))
    out = a @ b
    assert out.shape == (n, 3)
    out.sum().backward()
    assert a.grad.shape == (n, m)
