"""One contract over every op of the test oracle's tape
(``tests/reference_tape.py``): each :class:`Function` subclass, found
recursively, so a new op cannot skip it.  The fused ops run ``repro.nn``'s
array functions and backward bodies, so their cases check those against
finite differences too.

For each op, on fixed random inputs away from its kinks:

* one taped ``apply`` is exactly one op (a spy on ``Function.apply``
  counts it) and one tape node of that op;
* the graph-free output (no operand requires a gradient) equals the taped
  output bitwise and has no context;
* gradients match central finite differences, with a magnitude-aware floor;
* an operand that does not require a gradient keeps ``.grad is None``.
"""

import numpy as np
import pytest

import reference_attention
import reference_tape as T
from reference_tape import Function, Tensor


def all_functions(cls=Function):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_functions(sub)


FUNCTIONS = sorted(set(all_functions()), key=lambda op: (op.__module__, op.__qualname__))


def _normal(rng, *shape):
    return rng.standard_normal(shape)


def _away_from_zero(rng, *shape):
    """Entries of magnitude in [0.3, 2), either sign."""
    return rng.uniform(0.3, 2.0, shape) * rng.choice([-1.0, 1.0], shape)


def _positive(rng, *shape):
    return rng.uniform(0.5, 2.0, shape)


def _segment_attention_case(rng):
    """Two node-count segments, one masked and one not: 2 rows of 3 nodes
    and 1 row of 2, so 8 tokens; 2 heads of width 2."""
    reach = rng.random((2, 1, 3, 3)) < 0.6
    reach |= np.eye(3, dtype=bool)
    segments = [(2, 3, np.where(reach, 0.0, -1e9)), (1, 2, None)]
    arrays = [_normal(rng, 8, 4) for _ in range(3)]
    return arrays, lambda q, k, v: T.segment_attention(q, k, v, segments, 2, 0.5)


def _node_vector_case(rng):
    d, tokens, slots = 3, 5, 2
    sizes = (4, 5, 6, 3, 7, 4)  # op, table, height, struct, column, pred_op
    ints = np.stack([rng.integers(0, sizes[i], tokens) for i in (0, 1, 4, 4, 2, 3)])
    fints = np.stack([rng.integers(0, sizes[4], (tokens, slots)), rng.integers(0, sizes[5], (tokens, slots))])
    fvals = rng.uniform(-1.0, 1.0, (tokens, slots))
    arrays = [_normal(rng, n, d) for n in sizes] + [_normal(rng, d)]
    return arrays, lambda *t: T.NodeVectors.apply(*t, ints=ints, fints=fints, fvals=fvals)


def _clip_case(rng):
    a = rng.uniform(-2.0, 2.0, (3, 4))
    a[np.abs(np.abs(a) - 1.0) < 0.1] += 0.3  # away from the clip bounds
    return [a], lambda t: t.clip(-1.0, 1.0)


# op -> rng -> (operand arrays, build(*tensors) -> Tensor), one apply each.
CASES = {
    T.Add: lambda r: ([_normal(r, 3, 4), _normal(r, 4)], lambda a, b: a + b),
    T.Neg: lambda r: ([_normal(r, 3, 4)], lambda a: -a),
    T.Sub: lambda r: ([_normal(r, 3, 4), _normal(r, 3, 1)], lambda a, b: a - b),
    T.Mul: lambda r: ([_normal(r, 3, 4), _normal(r, 3, 4)], lambda a, b: a * b),
    T.Div: lambda r: ([_normal(r, 3, 4), _positive(r, 4)], lambda a, b: a / b),
    T.Pow: lambda r: ([_positive(r, 3, 4)], lambda a: a**1.5),
    T.MatMul: lambda r: ([_normal(r, 3, 4), _normal(r, 4, 2)], lambda a, b: a @ b),
    T.Reshape: lambda r: ([_normal(r, 2, 6)], lambda a: a.reshape(3, 4)),
    T.Transpose: lambda r: ([_normal(r, 2, 3, 4)], lambda a: a.transpose(0, 2)),
    T.GetItem: lambda r: ([_normal(r, 4, 3)], lambda a: a[np.array([0, 0, 2])]),
    T.Sum: lambda r: ([_normal(r, 3, 4)], lambda a: a.sum(axis=0)),
    T.Max: lambda r: ([_normal(r, 3, 4)], lambda a: a.max(axis=-1)),
    T.Exp: lambda r: ([_normal(r, 3, 4)], lambda a: a.exp()),
    T.Log: lambda r: ([_positive(r, 3, 4)], lambda a: a.log()),
    T.Tanh: lambda r: ([_normal(r, 3, 4)], lambda a: a.tanh()),
    T.ReLU: lambda r: ([_away_from_zero(r, 3, 4)], lambda a: a.relu()),
    T.Clip: _clip_case,
    T.Concatenate: lambda r: ([_normal(r, 2, 3), _normal(r, 2, 2)], lambda a, b: T.concatenate([a, b], axis=1)),
    T.Where: lambda r: (
        [_normal(r, 2, 3), _normal(r, 2, 3)],
        lambda a, b: T.where(np.array([[True, False, True], [False, False, True]]), a, b),
    ),
    T.FusedLinear: lambda r: (
        [_normal(r, 3, 4), _normal(r, 4, 2), _normal(r, 2)],
        lambda x, w, b: T.fused_linear(x, w, b, activation="tanh"),
    ),
    T.SegmentAttention: _segment_attention_case,
    reference_attention.FusedAttention: lambda r: (
        [_normal(r, 1, 2, 4, 3) for _ in range(3)],
        lambda q, k, v: reference_attention.fused_attention(q, k, v, None, 0.5),
    ),
    T.Lookup: lambda r: (
        [_normal(r, 5, 3)],
        lambda w: T.Lookup.apply(w, ids=np.array([[1, 1, 3], [0, 4, 1]])),
    ),
    T.Normalize: lambda r: (
        [_normal(r, 3, 4) * 2.0 + 1.0, _normal(r, 4), _normal(r, 4)],
        lambda x, g, b: T.Normalize.apply(x, x, g, b, eps=1e-5),
    ),
    T.PoolRoots: lambda r: (
        [_normal(r, 3, 4)],
        lambda root: T.PoolRoots.apply(root, order=[2, 0, 1], steps=np.array([0.1, 0.2, 0.3])),
    ),
    T.NodeVectors: _node_vector_case,
}


def _finite_difference(loss, array, h=1e-6):
    grad = np.zeros_like(array)
    flat, gflat = array.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = loss()
        flat[i] = keep - h
        lo = loss()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def test_every_op_is_discovered():
    names = {op.__name__ for op in FUNCTIONS}
    assert {"Add", "FusedLinear", "SegmentAttention", "Normalize", "NodeVectors", "PoolRoots"} <= names


@pytest.fixture()
def applied(monkeypatch):
    """``(op class, output bytes)`` of every ``Function.apply`` while the
    returned list is live; the spy wraps the tape's one dispatch point."""
    log = []
    apply = Function.apply.__func__

    def spied(cls, *operands, **options):
        out = apply(cls, *operands, **options)
        log.append((cls, out.data.nbytes))
        return out

    monkeypatch.setattr(Function, "apply", classmethod(spied))
    return log


@pytest.mark.parametrize("op", FUNCTIONS, ids=lambda op: op.__qualname__)
def test_function_contract(op, applied):
    assert op in CASES, f"{op.__module__}.{op.__qualname__} has no contract case in CASES"
    rng = np.random.default_rng(sum(map(ord, op.__qualname__)))
    arrays, build = CASES[op](rng)

    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    applied.clear()
    taped = build(*leaves)
    assert applied == [(op, taped.data.nbytes)]
    assert type(taped._ctx) is op and taped.requires_grad
    fast = build(*(Tensor(a) for a in arrays))
    assert fast._ctx is None and not fast.requires_grad
    assert np.array_equal(fast.data, taped.data)  # graph-free == tape, bitwise

    upstream = rng.standard_normal(taped.shape)
    taped.backward(upstream)

    def loss():
        return float((build(*(Tensor(a) for a in arrays)).data * upstream).sum())

    for position, (array, leaf) in enumerate(zip(arrays, leaves)):
        numeric = _finite_difference(loss, array)
        floor = 1e-7 * max(1.0, np.abs(numeric).max())
        np.testing.assert_allclose(leaf.grad, numeric, rtol=1e-5, atol=floor, err_msg=f"operand {position}")

    frozen = Tensor(arrays[0].copy())
    rest = [Tensor(a.copy(), requires_grad=True) for a in arrays[1:]]
    out = build(frozen, *rest)
    out.backward(upstream)
    assert frozen.grad is None
    assert all(t.grad is not None for t in rest)
