"""Reverse-mode autograd over numpy arrays: one op protocol.

Every differentiable op is a slotted :class:`Function` subclass, and the
instance is the op's backward context (tinygrad's design):

* ``forward(ctx, *arrays, **options)`` computes the result from the
  operands' arrays, keeping on ``ctx`` what its backward will read;
  keyword ``options`` (axes, shapes, masks, scales) are constants.
* ``backward(ctx, grad)`` returns one gradient per operand, or ``None``
  for one that needs none; ``ctx.needs_grad`` says which operands do, so
  no backward computes a product nobody reads.

:meth:`Function.apply` is the one dispatch point.  It is the only code
that decides between a tape node and a graph-free tensor, and gradients
decide it: an op builds a tape node exactly when an operand requires a
gradient, and otherwise runs the same ``forward``, keeps no context and
returns a graph-free tensor.  There is no grad mode.  The tape is
training's: code that builds no loss (every served, simulated and sampled
forward) calls the modules' array-code ``infer`` instead and builds no
tensor at all.  :meth:`Tensor.backward` walks the tape in reverse
topological order and adds each node's gradients into its parents, in
parent order.  Only float64 tensors participate in differentiation, which
keeps gradient checks tight in the test suite.

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
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

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

    def abs(self) -> "Tensor":
        return Abs.apply(self)


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


class Abs(Function):
    __slots__ = ("a",)

    def forward(ctx, a):
        ctx.a = a
        return np.abs(a)

    def backward(ctx, grad):
        return (grad * np.sign(ctx.a),)


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


class Stack(Function):
    __slots__ = ("count", "axis")

    def forward(ctx, *arrays, axis):
        ctx.count, ctx.axis = len(arrays), axis
        return np.stack(arrays, axis=axis)

    def backward(ctx, grad):
        return [np.squeeze(slab, axis=ctx.axis) for slab in np.split(grad, ctx.count, axis=ctx.axis)]


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
def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def randn(*shape: int, rng: Optional[np.random.Generator] = None, requires_grad: bool = False) -> Tensor:
    gen = rng if rng is not None else np.random.default_rng()
    return Tensor(gen.standard_normal(shape), requires_grad=requires_grad)


def concatenate(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    return Concatenate.apply(*tensors, axis=axis)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new ``axis``."""
    return Stack.apply(*tensors, axis=axis)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection: ``condition ? a : b`` (condition is constant)."""
    return Where.apply(a, b, condition=condition)
