"""Test-only oracle: reverse-mode autograd over numpy arrays.

``repro.nn`` computes gradients with hand-written pullbacks, one per
module forward, each adding its gradients in a fixed order.  This module
keeps the autograd tape those pullbacks replaced, so the tests can hold
every output, gradient and optimizer step to it bitwise
(``tests/test_pullbacks.py``), and the elementary op chains the fused
backward bodies compose (``tests/test_nn_fused.py``).  Nothing under
``src/`` imports it.

**The op protocol.**  Every differentiable op is a slotted
:class:`Function` subclass, and the instance is the op's backward context
(tinygrad's design):

* ``forward(ctx, *arrays, **options)`` computes the result from the
  operands' arrays, keeping on ``ctx`` what its backward will read;
  keyword ``options`` (axes, shapes, masks, scales) are constants.
* ``backward(ctx, grad)`` returns one gradient per operand, or ``None``
  for one that needs none; ``ctx.needs_grad`` says which operands do.

:meth:`Function.apply` is the one dispatch point: an op builds a tape node
exactly when an operand requires a gradient, and otherwise returns a
graph-free tensor.  :meth:`Tensor.backward` walks the tape in reverse
topological order and adds each node's gradients into its parents, in
parent order; that walk fixes the order in which a tensor reached by
several ops receives its gradients, which is what decides bitwise
equality.  The fused ops (:class:`FusedLinear`, :class:`SegmentAttention`,
:class:`Normalize`, :class:`Lookup`, :class:`NodeVectors`,
:class:`PoolRoots`) run ``repro.nn``'s array functions and backward
bodies, so a test of the tape composes exactly what the pullbacks do.

Gradient ownership: a *leaf* (a parameter or a ``requires_grad=True`` input
— no context) owns its ``.grad``: the first gradient to reach it is copied
and later ones are added in place, because ``clip_grad_norm`` and the
optimizers scale ``p.grad`` in place and one upstream array may reach two
leaves (``(a + b).sum()``).  An *interior* node owns nothing: it borrows
the first gradient that reaches it, allocates only when a second arrives
(``grad + grad``, never ``+=`` into an array that may be another node's, a
slice of one, or a read-only ``broadcast_to`` view), and gives the gradient
up as soon as its own backward has run.  Hence no ``backward`` may write
into the ``grad`` it is handed.

**The taped compositions.**  The functions at the end are the modules'
forwards as they stood on the tape, over a :class:`Leaves` map that gives
each parameter one leaf tensor sharing its array; ``aam_step``,
``ppo_minibatch`` and ``value_fit`` are the three training steps.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Union

import numpy as np

import repro.core.aam as aam
from repro.core.aam import distinct_rows
from repro.nn import functional as F
from repro.nn import layers
from repro.nn.layers import Linear, ReLU, leading_tokens
from repro.nn.optim import clip_grad_norm
from repro.rl.policy import _mask_term

ArrayLike = Union[np.ndarray, float, int, Sequence]


def _as_array(data: ArrayLike) -> np.ndarray:
    if isinstance(data, np.ndarray):
        if data.dtype != np.float64:
            return data.astype(np.float64)
        return data
    return np.asarray(data, dtype=np.float64)


def _sum_to_shape(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` (undo numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum along dimensions that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


_new = object.__new__


class Function:
    """One differentiable op; an instance is one application's context.

    Subclasses declare ``__slots__`` for what ``forward`` keeps and
    implement ``forward(ctx, *arrays, **options)`` and ``backward(ctx,
    grad)`` (see the module docstring).  ``parents`` and ``needs_grad``
    are set by :meth:`apply` on tape nodes only.
    """

    __slots__ = ("parents", "needs_grad")

    @classmethod
    def apply(cls, *operands, **options) -> "Tensor":
        """Run the op on ``operands`` (tensors, or array-likes taken as
        constants) and return its result, a tape node when an operand
        requires a gradient."""
        ctx = _new(cls)
        arrays = []
        for operand in operands:
            arrays.append(operand.data if isinstance(operand, Tensor) else _as_array(operand))
        out = _new(Tensor)
        out.data = ctx.forward(*arrays, **options)
        out.grad = None
        needs = tuple([isinstance(t, Tensor) and t.requires_grad for t in operands])
        if True in needs:
            ctx.parents = operands
            ctx.needs_grad = needs
            out.requires_grad = True
            out._ctx = ctx
            return out
        out.requires_grad = False
        out._ctx = None
        return out


class Tensor:
    """A numpy array plus, on the tape, the :class:`Function` that made it.

    Parameters
    ----------
    data:
        Array-like payload; always stored as ``float64``.
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` (a leaf's
        flag; an op records a tape node exactly when one of its operands
        has it, see :meth:`Function.apply`).
    """

    __slots__ = ("data", "grad", "requires_grad", "_ctx")

    def __init__(self, data: ArrayLike, requires_grad: bool = False) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._ctx: Optional[Function] = None

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # graph machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``.grad`` under the ownership rule (module docstring)."""
        if type(grad) is not np.ndarray or grad.dtype != np.float64:
            grad = np.asarray(grad, dtype=np.float64)
        grad = _sum_to_shape(grad, self.data.shape)
        if self._ctx is None:
            # Leaf: owns its gradient, so the first arrival is copied.
            if self.grad is None:
                self.grad = grad.copy()
            else:
                self.grad += grad
        elif self.grad is None:
            self.grad = grad  # interior: borrowed, never written
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (so scalars need no argument).  Gradients
        are left on leaves only — parameters and ``requires_grad=True``
        inputs, where repeated calls keep accumulating until ``zero_grad``.
        An interior tensor (the result of an op) hands its gradient to its
        own backward and drops it, so its ``.grad`` is ``None`` afterwards.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            if node._ctx is not None:
                for parent, needs in zip(node._ctx.parents, node._ctx.needs_grad):
                    if needs and id(parent) not in visited:
                        stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(topo):
            ctx = node._ctx
            if ctx is not None and node.grad is not None:
                node_grad, node.grad = node.grad, None
                for parent, needs, parent_grad in zip(ctx.parents, ctx.needs_grad, ctx.backward(node_grad)):
                    if needs and parent_grad is not None:
                        parent._accumulate(parent_grad)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        return Add.apply(self, other)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Neg.apply(self)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return Sub.apply(self, other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Sub.apply(other, self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return Mul.apply(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return Div.apply(self, other)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Div.apply(other, self)

    def __pow__(self, exponent: float) -> "Tensor":
        return Pow.apply(self, exponent=exponent)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return MatMul.apply(self, other)

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Reshape.apply(self, shape=shape)

    def transpose(self, axis1: int = -2, axis2: int = -1) -> "Tensor":
        return Transpose.apply(self, axis1=axis1, axis2=axis2)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        return GetItem.apply(self, index=index)

    # ------------------------------------------------------------------
    # reductions & elementwise
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        return Sum.apply(self, axis=axis, keepdims=keepdims)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        return Max.apply(self, axis=axis, keepdims=keepdims)

    def exp(self) -> "Tensor":
        return Exp.apply(self)

    def log(self) -> "Tensor":
        return Log.apply(self)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        return Tanh.apply(self)

    def relu(self) -> "Tensor":
        return ReLU.apply(self)

    def clip(self, low: float, high: float) -> "Tensor":
        return Clip.apply(self, low=low, high=high)


# ----------------------------------------------------------------------
# the ops
# ----------------------------------------------------------------------
class Add(Function):
    __slots__ = ()

    def forward(ctx, a, b):
        return a + b

    def backward(ctx, grad):
        return grad, grad


class Neg(Function):
    __slots__ = ()

    def forward(ctx, a):
        return -a

    def backward(ctx, grad):
        return (-grad,)


class Sub(Function):
    __slots__ = ()

    def forward(ctx, a, b):
        return a - b

    def backward(ctx, grad):
        return grad, -grad if ctx.needs_grad[1] else None


class Mul(Function):
    __slots__ = ("a", "b")

    def forward(ctx, a, b):
        ctx.a, ctx.b = a, b
        return a * b

    def backward(ctx, grad):
        need_a, need_b = ctx.needs_grad
        return grad * ctx.b if need_a else None, grad * ctx.a if need_b else None


class Div(Function):
    __slots__ = ("a", "b")

    def forward(ctx, a, b):
        ctx.a, ctx.b = a, b
        return a / b

    def backward(ctx, grad):
        need_a, need_b = ctx.needs_grad
        a, b = ctx.a, ctx.b
        return grad / b if need_a else None, -grad * a / (b**2) if need_b else None


class Pow(Function):
    __slots__ = ("a", "exponent")

    def forward(ctx, a, exponent):
        ctx.a, ctx.exponent = a, exponent
        return a**exponent

    def backward(ctx, grad):
        return (grad * ctx.exponent * ctx.a ** (ctx.exponent - 1),)


class MatMul(Function):
    __slots__ = ("a", "b")

    def forward(ctx, a, b):
        ctx.a, ctx.b = a, b
        return a @ b

    def backward(ctx, grad):
        need_a, need_b = ctx.needs_grad
        a, b = ctx.a, ctx.b
        grad_a = grad_b = None
        if need_a:
            if b.ndim == 1:
                grad_a = np.outer(grad, b) if a.ndim == 2 else grad * b
            else:
                grad_a = grad @ np.swapaxes(b, -1, -2)
        if need_b:
            grad_b = np.outer(a, grad) if a.ndim == 1 else np.swapaxes(a, -1, -2) @ grad
        return grad_a, grad_b


class Reshape(Function):
    __slots__ = ("shape",)

    def forward(ctx, a, shape):
        ctx.shape = a.shape
        return a.reshape(shape)

    def backward(ctx, grad):
        return (grad.reshape(ctx.shape),)


class Transpose(Function):
    __slots__ = ("axes",)

    def forward(ctx, a, axis1, axis2):
        ctx.axes = (axis1, axis2)
        return np.swapaxes(a, axis1, axis2)

    def backward(ctx, grad):
        return (np.swapaxes(grad, *ctx.axes),)


class GetItem(Function):
    __slots__ = ("a", "index")

    def forward(ctx, a, index):
        ctx.a, ctx.index = a, index
        return a[index]

    def backward(ctx, grad):
        full = np.zeros_like(ctx.a)
        np.add.at(full, ctx.index, grad)
        return (full,)


class Sum(Function):
    __slots__ = ("shape", "axis", "keepdims")

    def forward(ctx, a, axis, keepdims):
        ctx.shape, ctx.axis, ctx.keepdims = a.shape, axis, keepdims
        return a.sum(axis=axis, keepdims=keepdims)

    def backward(ctx, grad):
        if ctx.axis is not None and not ctx.keepdims:
            grad = np.expand_dims(grad, ctx.axis)
        return (np.broadcast_to(grad, ctx.shape),)


class Max(Function):
    __slots__ = ("a", "out", "axis", "keepdims")

    def forward(ctx, a, axis, keepdims):
        out = a.max(axis=axis, keepdims=keepdims)
        ctx.a, ctx.out, ctx.axis, ctx.keepdims = a, out, axis, keepdims
        return out

    def backward(ctx, grad):
        axis, out = ctx.axis, ctx.out
        if axis is not None and not ctx.keepdims:
            grad = np.expand_dims(grad, axis)
            out = np.expand_dims(out, axis)
        mask = (ctx.a == out).astype(np.float64)
        mask /= np.maximum(mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum(), 1.0)
        return (mask * grad,)


class Exp(Function):
    __slots__ = ("out",)

    def forward(ctx, a):
        out = ctx.out = np.exp(a)
        return out

    def backward(ctx, grad):
        return (grad * ctx.out,)


class Log(Function):
    __slots__ = ("a",)

    def forward(ctx, a):
        ctx.a = a
        return np.log(a)

    def backward(ctx, grad):
        return (grad / ctx.a,)


class Tanh(Function):
    __slots__ = ("out",)

    def forward(ctx, a):
        out = ctx.out = np.tanh(a)
        return out

    def backward(ctx, grad):
        return (grad * (1.0 - ctx.out**2),)


class ReLU(Function):
    __slots__ = ("a",)

    def forward(ctx, a):
        ctx.a = a
        return np.maximum(a, 0.0)

    def backward(ctx, grad):
        return (grad * (ctx.a > 0),)


class Clip(Function):
    __slots__ = ("a", "low", "high")

    def forward(ctx, a, low, high):
        ctx.a, ctx.low, ctx.high = a, low, high
        return np.clip(a, low, high)

    def backward(ctx, grad):
        return (grad * ((ctx.a >= ctx.low) & (ctx.a <= ctx.high)),)


class Concatenate(Function):
    __slots__ = ("sizes", "axis")

    def forward(ctx, *arrays, axis):
        ctx.sizes, ctx.axis = [a.shape[axis] for a in arrays], axis
        return np.concatenate(arrays, axis=axis)

    def backward(ctx, grad):
        offsets = np.cumsum([0] + ctx.sizes)
        index = [slice(None)] * grad.ndim
        axis = ctx.axis if ctx.axis >= 0 else grad.ndim + ctx.axis
        grads = []
        for needs, start, stop in zip(ctx.needs_grad, offsets[:-1], offsets[1:]):
            index[axis] = slice(start, stop)
            grads.append(grad[tuple(index)] if needs else None)
        return grads


class Where(Function):
    __slots__ = ("condition",)

    def forward(ctx, a, b, condition):
        ctx.condition = np.asarray(condition, dtype=bool)
        return np.where(ctx.condition, a, b)

    def backward(ctx, grad):
        need_a, need_b = ctx.needs_grad
        return (
            np.where(ctx.condition, grad, 0.0) if need_a else None,
            np.where(ctx.condition, 0.0, grad) if need_b else None,
        )


# ----------------------------------------------------------------------
# module-level constructors and helpers
# ----------------------------------------------------------------------
def concatenate(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    return Concatenate.apply(*tensors, axis=axis)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection: ``condition ? a : b`` (condition is constant)."""
    return Where.apply(a, b, condition=condition)


# ----------------------------------------------------------------------
# the fused ops, over repro.nn's array functions and backward bodies
# ----------------------------------------------------------------------
class FusedLinear(Function):
    """``activation(x @ weight + bias)``; see :func:`fused_linear`."""

    __slots__ = ("x", "weight", "out", "activation")

    def forward(ctx, x, weight, bias=None, activation=None):
        out = F.linear(x, weight, bias, activation)
        ctx.x, ctx.weight, ctx.out, ctx.activation = x, weight, out, activation
        return out

    def backward(ctx, grad):
        grad_x, grad_weight, grad_bias = F.linear_backward(grad, ctx.x, ctx.weight, ctx.out, ctx.activation)
        return grad_x if ctx.needs_grad[0] else None, grad_weight, grad_bias


def fused_linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, activation=None) -> Tensor:
    """``activation(x @ weight + bias)`` as one tape node, bitwise the
    unfused chain ``x @ W`` → ``+ b`` → ``.relu()``/``.tanh()``."""
    operands = (x, weight) if bias is None else (x, weight, bias)
    return FusedLinear.apply(*operands, activation=activation)


class SegmentAttention(Function):
    """Attention over a packed batch; see :func:`segment_attention`."""

    __slots__ = ("operands", "saved", "heads", "scale")

    def forward(ctx, qd, kd, vd, segments, heads, scale, lead):
        out, ctx.saved = F.attend_segments(qd, kd, vd, segments, heads, scale, lead)
        ctx.operands, ctx.heads, ctx.scale = (qd, kd, vd), heads, scale
        return out

    def backward(ctx, grad):
        return F.attend_segments_backward(grad, *ctx.operands, ctx.saved, ctx.heads, ctx.scale)


def segment_attention(q, k, v, segments, heads, scale, lead=None) -> Tensor:
    """:func:`repro.nn.functional.attend_segments` as one tape node."""
    return SegmentAttention.apply(q, k, v, segments=segments, heads=heads, scale=scale, lead=lead)


class Normalize(Function):
    """Layer normalization as one tape node.  The chain it replaces reached
    ``x`` through two nodes, so the caller lists ``x`` twice and the
    backward returns the two gradients for the two slots, which the tape
    adds in that order."""

    __slots__ = ("saved", "gamma")

    def forward(ctx, x, x_again, gamma, beta, eps):
        out, *saved = layers.normalize(x, gamma, beta, eps)
        ctx.saved, ctx.gamma = saved, gamma
        return out

    def backward(ctx, grad):
        centered_term, mean_term, grad_gamma = layers.normalize_backward(grad, ctx.gamma, *ctx.saved)
        return centered_term, mean_term, grad_gamma, grad


class Lookup(Function):
    """Rows ``ids`` of a weight table; the backward is one scatter-add."""

    __slots__ = ("ids", "num")

    def forward(ctx, weight, ids):
        ctx.ids, ctx.num = ids, len(weight)
        return weight[ids]

    def backward(ctx, grad):
        return (layers.scatter_rows(ctx.ids.reshape(-1), grad.reshape(-1, grad.shape[-1]), ctx.num),)


class NodeVectors(Function):
    """:func:`repro.core.aam.node_vectors` as one tape node over its seven
    parameter operands."""

    __slots__ = ("ints", "fints", "fvals", "tables")

    def forward(ctx, *tables, ints, fints, fvals):
        ctx.ints, ctx.fints, ctx.fvals, ctx.tables = ints, fints, fvals, tables
        return aam.node_vectors(*tables, ints, fints, fvals)

    def backward(ctx, grad):
        return aam.node_vectors_backward(grad, ctx.ints, ctx.fints, ctx.fvals, ctx.tables)


class PoolRoots(Function):
    """:func:`repro.core.aam.pool_roots` as one tape node."""

    __slots__ = ("order", "width")

    def forward(ctx, root, order, steps):
        ctx.order, ctx.width = order, root.shape[1]
        return aam.pool_roots(root, order, steps)

    def backward(ctx, grad):
        return (grad[ctx.order, : ctx.width],)


# ----------------------------------------------------------------------
# the modules' forwards on the tape
# ----------------------------------------------------------------------
class Leaves:
    """One leaf tensor per parameter of ``modules``, sharing the
    parameter's array, so an optimizer step on the parameters is seen."""

    def __init__(self, *modules) -> None:
        self.named = [(name, param) for module in modules for name, param in module.named_parameters()]
        self._leaves = {id(param): Tensor(param.data, requires_grad=True) for _, param in self.named}

    def __getitem__(self, param) -> Tensor:
        return self._leaves[id(param)]

    def grads(self) -> dict:
        return {name: self[param].grad for name, param in self.named}

    def install(self) -> None:
        """Hand every leaf's gradient to its parameter, for the optimizer."""
        for _, param in self.named:
            param.grad = self[param].grad


def linear(L: Leaves, layer: Linear, x: Tensor, activation=None) -> Tensor:
    bias = None if layer.bias is None else L[layer.bias]
    return fused_linear(x, L[layer.weight], bias, activation)


def sequential(L: Leaves, seq, x: Tensor) -> Tensor:
    for layer, activation in seq._fusion_plan:
        if isinstance(layer, Linear):
            x = linear(L, layer, x, activation)
        else:
            x = x.relu() if isinstance(layer, ReLU) else x.tanh()
    return x


def embedding(L: Leaves, embed, ids) -> Tensor:
    return Lookup.apply(L[embed.weight], ids=np.asarray(ids, dtype=np.int64))


def layer_norm(L: Leaves, norm, x: Tensor) -> Tensor:
    # ``x`` is passed twice: see :class:`Normalize`.
    return Normalize.apply(x, x, L[norm.gamma], L[norm.beta], eps=norm.eps)


def attention(L: Leaves, mha, x: Tensor, segments, rows=None) -> Tensor:
    xq = x if rows is None else x[leading_tokens(segments, rows)]
    context = segment_attention(
        linear(L, mha.q_proj, xq), linear(L, mha.k_proj, x), linear(L, mha.v_proj, x),
        segments, mha.num_heads, 1.0 / math.sqrt(mha.head_dim), rows,
    )
    return linear(L, mha.out_proj, context)


def feed_forward(L: Leaves, ff, x: Tensor) -> Tensor:
    return linear(L, ff.fc2, linear(L, ff.fc1, x, "relu"))


def encoder_layer(L: Leaves, layer, x: Tensor, segments, rows=None) -> Tensor:
    attended = attention(L, layer.attn, layer_norm(L, layer.norm1, x), segments, rows)
    if rows is not None:
        x = x[leading_tokens(segments, rows)]
    x = x + attended
    return x + feed_forward(L, layer.ff, layer_norm(L, layer.norm2, x))


def state_network(L: Leaves, network, plans, steps) -> Tensor:
    order, segments, ints, fints, fvals = network._layout(plans)
    x = NodeVectors.apply(*(L[p] for p in network._tables()), ints=ints, fints=fints, fvals=fvals)
    x = linear(L, network.input_proj, x)
    last = len(network.layers) - 1
    for i, layer in enumerate(network.layers):
        x = encoder_layer(L, layer, x, segments, 1 if i == last else None)
    if not network.layers:
        x = x[leading_tokens(segments, 1)]
    root = layer_norm(L, network.final_norm, x)
    return linear(L, network.state_proj, PoolRoots.apply(root, order=order, steps=steps))


def head(L: Leaves, model, vec_l: Tensor, vec_r: Tensor) -> Tensor:
    batch = vec_l.shape[0]
    positions, fc1 = L[model.position_embed.weight], model.fc1
    # Position ids are the constants 0 (left) and 1 (right): in range.
    pos_l = Lookup.apply(positions, ids=np.zeros(batch, dtype=np.int64))
    pos_r = Lookup.apply(positions, ids=np.ones(batch, dtype=np.int64))
    hidden_l = linear(L, fc1, vec_l + pos_l).relu()
    hidden_r = linear(L, fc1, vec_r + pos_r).relu()
    return linear(L, model.fc2, hidden_l - hidden_r)


def advantage(L: Leaves, model, left, left_steps, right, right_steps) -> Tensor:
    plans, steps, left_index, right_index = distinct_rows(left, left_steps, right, right_steps)
    vecs = state_network(L, model.state_network, plans, steps)
    return head(L, model, vecs[left_index], vecs[right_index])


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    shifted = logits - logits.data.max(axis=axis, keepdims=True)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    diff = pred - Tensor(target)
    return (diff * diff).mean()


def asymmetric_loss(logits: Tensor, labels, gamma_positive, gamma_negative, label_smoothing) -> Tensor:
    labels = np.asarray(labels, dtype=np.int64)
    batch, num_classes = logits.shape
    log_probs = log_softmax(logits, axis=-1)
    probs = log_probs.exp()
    one_hot = np.zeros((batch, num_classes))
    one_hot[np.arange(batch), labels] = 1.0
    p_hat = np.where(one_hot > 0, probs.data, 1.0 - probs.data)
    gamma = np.where(one_hot > 0, gamma_positive, gamma_negative)
    focal_weight = (1.0 - p_hat) ** gamma
    epsilon = label_smoothing
    smoothed = np.where(one_hot > 0, 1.0 - epsilon, epsilon / (num_classes - 1))
    weights = Tensor(smoothed * focal_weight)
    return -(weights * log_probs).sum() * (1.0 / batch)


class CategoricalMasked:
    """Categorical distribution over the legal actions, on the tape."""

    def __init__(self, logits: Tensor, mask: Optional[np.ndarray] = None) -> None:
        if mask is not None:
            logits = logits + Tensor(_mask_term(mask))
        self.logits = logits
        self.log_probs = log_softmax(logits, axis=-1)

    def log_prob(self, actions: np.ndarray) -> Tensor:
        actions = np.asarray(actions, dtype=np.int64)
        rows = np.arange(self.logits.shape[0])
        return self.log_probs[rows, actions]

    def entropy(self) -> Tensor:
        probs = self.log_probs.exp()
        return -(probs * self.log_probs).sum(axis=-1)


def actor_critic(L: Leaves, policy, states: Tensor, masks=None):
    """``(dist, values)``: the taped policy and values."""
    dist = CategoricalMasked(sequential(L, policy.actor, states), masks)
    return dist, sequential(L, policy.critic, states).reshape(-1)


# ----------------------------------------------------------------------
# the three training steps on the tape
# ----------------------------------------------------------------------
def aam_step(trainer, chunk) -> float:
    """``AAMTrainer._step`` on the tape."""
    model, cfg = trainer.model, trainer.config
    L = Leaves(model)
    logits = advantage(
        L, model,
        [s.left for s in chunk], np.array([s.left_step for s in chunk]),
        [s.right for s in chunk], np.array([s.right_step for s in chunk]),
    )
    labels = np.array([s.label for s in chunk])
    loss = asymmetric_loss(logits, labels, cfg.gamma_positive, cfg.gamma_negative, cfg.label_smoothing)
    trainer.optimizer.zero_grad()
    loss.backward()
    L.install()
    clip_grad_norm(model.parameters(), cfg.max_grad_norm)
    trainer.optimizer.step()
    return float(loss.data)


def ppo_minibatch(trainer, mini) -> dict:
    """``PPOTrainer._update_minibatch`` on the tape."""
    cfg, policy = trainer.config, trainer.policy
    L = Leaves(policy)
    dist, values = actor_critic(L, policy, Tensor(mini.states), mini.action_masks)
    log_probs = dist.log_prob(mini.actions)
    ratio = (log_probs - Tensor(mini.old_log_probs)).exp()
    advantages = Tensor(mini.advantages)
    unclipped = ratio * advantages
    clipped = ratio.clip(1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio) * advantages
    policy_loss = -where(unclipped.data <= clipped.data, unclipped, clipped).mean()
    value_loss = mse_loss(values, mini.returns)
    entropy = dist.entropy().mean()
    loss = policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy
    trainer.optimizer.zero_grad()
    loss.backward()
    L.install()
    clip_grad_norm(policy.parameters(), cfg.max_grad_norm)
    trainer.optimizer.step()
    return {
        "policy_loss": float(policy_loss.data),
        "value_loss": float(value_loss.data),
        "entropy": float(entropy.data),
        "kl": abs(float(np.mean(mini.old_log_probs - log_probs.data))),
    }


def value_fit(model, epochs: int = 30, minibatch: int = 64) -> float:
    """``ValueModel.fit`` on the tape."""
    if not model._samples:
        return 0.0
    features = np.stack([s.features for s in model._samples])
    targets = np.log1p(np.array([s.latency_ms for s in model._samples]))
    last_loss = 0.0
    for _ in range(epochs):
        order = model.rng.permutation(len(model._samples))
        for start in range(0, len(order), minibatch):
            idx = order[start : start + minibatch]
            L = Leaves(model.network)
            pred = sequential(L, model.network, Tensor(features[idx])).reshape(-1)
            loss = mse_loss(pred, targets[idx])
            model.optimizer.zero_grad()
            loss.backward()
            L.install()
            clip_grad_norm(model.network.parameters(), 5.0)
            model.optimizer.step()
            last_loss = float(loss.data)
    model.trained = True
    return last_loss
