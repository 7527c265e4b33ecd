"""Reverse-mode autograd over numpy arrays.

This module implements the dynamic-graph tensor used throughout the
reproduction.  Every differentiable operation records a backward closure;
:meth:`Tensor.backward` topologically sorts the tape and accumulates
gradients.  Only float64 tensors participate in differentiation, which keeps
gradient checks tight in the test suite.

Inference fast path: when gradients are disabled (``no_grad``) or no input
requires a gradient, every op skips graph construction entirely — no
backward closure is allocated, no parent tuple is kept, and the result is
built through :meth:`Tensor._inference` (a slotted ``__new__`` constructor
that bypasses ``__init__``'s array coercion).  The numpy expressions are
identical in both modes, so fast-path outputs are bitwise-equal to the
tape path's.

Gradient ownership: a *leaf* (a parameter or a ``requires_grad=True`` input
— no backward closure) owns its ``.grad``: the first gradient to reach it
is copied and later ones are added in place, because ``clip_grad_norm`` and
the optimizers scale ``p.grad`` in place and one upstream array may reach
two leaves (``(a + b).sum()``).  An *interior* node owns nothing: it borrows
the first gradient that reaches it, allocates only when a second arrives
(``grad + grad``, never ``+=`` into an array that may be another node's, a
slice of one, or a read-only ``broadcast_to`` view), and gives the gradient
up as soon as its own backward has run.  Hence no backward closure may
write into the ``grad`` it is handed.

Grad mode is tracked in a :class:`contextvars.ContextVar`, so a training
thread inside ``no_grad`` cannot flip inference mode under a concurrently
serving thread (each thread — and each asyncio task — sees its own flag).
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from repro.nn import profile as _profile

ArrayLike = Union[np.ndarray, float, int, Sequence]

_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_nn_grad_enabled", default=True
)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED.get()


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


class Tensor:
    """A numpy array plus an autograd tape node.

    Parameters
    ----------
    data:
        Array-like payload; always stored as ``float64``.
    requires_grad:
        Whether gradients should be accumulated into ``.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED.get()
        self.grad: Optional[np.ndarray] = None
        self._parents = tuple(_parents) if self.requires_grad or _parents else ()
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------
    # fast constructors (internal)
    # ------------------------------------------------------------------
    @staticmethod
    def _inference(data: np.ndarray) -> "Tensor":
        """Graph-free result wrapper for the inference fast path.

        ``data`` must already be a float64 ndarray (ops guarantee this);
        skipping ``__init__`` avoids the coercion/flag work per op.
        """
        out = Tensor.__new__(Tensor)
        out.data = data
        out.requires_grad = False
        out.grad = None
        out._parents = ()
        out._backward = None
        out.name = ""
        if _profile.ENABLED:
            _profile.COUNTERS.inference_tensors += 1
        return out

    @staticmethod
    def _node(
        data: np.ndarray,
        parents: tuple,
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Tape-node constructor; every differentiable op funnels through
        here, so ``profile.COUNTERS.tape_nodes`` counts the whole tape."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.requires_grad = True
        out.grad = None
        out._parents = parents
        out._backward = backward
        out.name = ""
        _profile.COUNTERS.tape_nodes += 1
        return out

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

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

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
        if self._backward is None:
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
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node_grad, node.grad = node.grad, None
                node._backward(node_grad)

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor._inference(_as_array(data))
        return Tensor._node(_as_array(data), tuple(parents), backward)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_is_tensor = isinstance(other, Tensor)
        out_data = self.data + (other.data if other_is_tensor else _as_array(other))
        if _profile.ENABLED:
            _profile.record("add", out_data.nbytes)
        if not _GRAD_ENABLED.get() or not (
            self.requires_grad or (other_is_tensor and other.requires_grad)
        ):
            return Tensor._inference(out_data)
        other_t = other if other_is_tensor else Tensor(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other_t.requires_grad:
                other_t._accumulate(grad)

        return Tensor._node(out_data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out_data = -self.data
        if _profile.ENABLED:
            _profile.record("neg", out_data.nbytes)
        if not _GRAD_ENABLED.get() or not self.requires_grad:
            return Tensor._inference(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._node(out_data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_is_tensor = isinstance(other, Tensor)
        out_data = self.data - (other.data if other_is_tensor else _as_array(other))
        if _profile.ENABLED:
            _profile.record("sub", out_data.nbytes)
        if not _GRAD_ENABLED.get() or not (
            self.requires_grad or (other_is_tensor and other.requires_grad)
        ):
            return Tensor._inference(out_data)
        other_t = other if other_is_tensor else Tensor(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other_t.requires_grad:
                other_t._accumulate(-grad)

        return Tensor._node(out_data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_is_tensor = isinstance(other, Tensor)
        other_data = other.data if other_is_tensor else _as_array(other)
        out_data = self.data * other_data
        if _profile.ENABLED:
            _profile.record("mul", out_data.nbytes)
        if not _GRAD_ENABLED.get() or not (
            self.requires_grad or (other_is_tensor and other.requires_grad)
        ):
            return Tensor._inference(out_data)
        other_t = other if other_is_tensor else Tensor(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(grad * self.data)

        return Tensor._node(out_data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_is_tensor = isinstance(other, Tensor)
        other_data = other.data if other_is_tensor else _as_array(other)
        out_data = self.data / other_data
        if _profile.ENABLED:
            _profile.record("div", out_data.nbytes)
        if not _GRAD_ENABLED.get() or not (
            self.requires_grad or (other_is_tensor and other.requires_grad)
        ):
            return Tensor._inference(out_data)
        other_t = other if other_is_tensor else Tensor(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(-grad * self.data / (other_t.data**2))

        return Tensor._node(out_data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data**exponent
        if _profile.ENABLED:
            _profile.record("pow", out_data.nbytes)
        if not _GRAD_ENABLED.get() or not self.requires_grad:
            return Tensor._inference(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._node(out_data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other_is_tensor = isinstance(other, Tensor)
        other_data = other.data if other_is_tensor else _as_array(other)
        out_data = self.data @ other_data
        if _profile.ENABLED:
            _profile.record("matmul", out_data.nbytes)
        if not _GRAD_ENABLED.get() or not (
            self.requires_grad or (other_is_tensor and other.requires_grad)
        ):
            return Tensor._inference(out_data)
        other_t = other if other_is_tensor else Tensor(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other_t.data.ndim == 1:
                    self._accumulate(np.outer(grad, other_t.data) if self.data.ndim == 2 else grad * other_t.data)
                else:
                    self._accumulate(grad @ np.swapaxes(other_t.data, -1, -2))
            if other_t.requires_grad:
                if self.data.ndim == 1:
                    other_t._accumulate(np.outer(self.data, grad))
                else:
                    other_t._accumulate(np.swapaxes(self.data, -1, -2) @ grad)

        return Tensor._node(out_data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out_data = self.data.reshape(shape)
        if _profile.ENABLED:
            _profile.record("reshape")
        if not _GRAD_ENABLED.get() or not self.requires_grad:
            return Tensor._inference(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._node(out_data, (self,), backward)

    def transpose(self, axis1: int = -2, axis2: int = -1) -> "Tensor":
        out_data = np.swapaxes(self.data, axis1, axis2)
        if _profile.ENABLED:
            _profile.record("transpose")
        if not _GRAD_ENABLED.get() or not self.requires_grad:
            return Tensor._inference(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.swapaxes(grad, axis1, axis2))

        return Tensor._node(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        if _profile.ENABLED:
            _profile.record("getitem", out_data.nbytes if isinstance(out_data, np.ndarray) else 0)
        if not _GRAD_ENABLED.get() or not self.requires_grad:
            return Tensor._inference(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._node(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # reductions & elementwise
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        if _profile.ENABLED:
            _profile.record("sum")
        if not _GRAD_ENABLED.get() or not self.requires_grad:
            return Tensor._inference(out_data)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._node(out_data, (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        if _profile.ENABLED:
            _profile.record("max")
        if not _GRAD_ENABLED.get() or not self.requires_grad:
            return Tensor._inference(out_data)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                out = np.expand_dims(out, axis)
            mask = (self.data == out).astype(np.float64)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum(), 1.0)
            self._accumulate(mask * g)

        return Tensor._node(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        if _profile.ENABLED:
            _profile.record("exp", out_data.nbytes)
        if not _GRAD_ENABLED.get() or not self.requires_grad:
            return Tensor._inference(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._node(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)
        if _profile.ENABLED:
            _profile.record("log", out_data.nbytes)
        if not _GRAD_ENABLED.get() or not self.requires_grad:
            return Tensor._inference(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._node(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        if _profile.ENABLED:
            _profile.record("tanh", out_data.nbytes)
        if not _GRAD_ENABLED.get() or not self.requires_grad:
            return Tensor._inference(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._node(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)
        if _profile.ENABLED:
            _profile.record("relu", out_data.nbytes)
        if not _GRAD_ENABLED.get() or not self.requires_grad:
            return Tensor._inference(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (self.data > 0))

        return Tensor._node(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        if _profile.ENABLED:
            _profile.record("sigmoid", out_data.nbytes)
        if not _GRAD_ENABLED.get() or not self.requires_grad:
            return Tensor._inference(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._node(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        if _profile.ENABLED:
            _profile.record("clip", out_data.nbytes)
        if not _GRAD_ENABLED.get() or not self.requires_grad:
            return Tensor._inference(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                inside = (self.data >= low) & (self.data <= high)
                self._accumulate(grad * inside)

        return Tensor._node(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)
        if _profile.ENABLED:
            _profile.record("abs", out_data.nbytes)
        if not _GRAD_ENABLED.get() or not self.requires_grad:
            return Tensor._inference(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return Tensor._node(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # comparisons (non-differentiable, return plain arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other) -> np.ndarray:
        other_data = other.data if isinstance(other, Tensor) else other
        return self.data > other_data

    def __lt__(self, other) -> np.ndarray:
        other_data = other.data if isinstance(other, Tensor) else other
        return self.data < other_data


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
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    if _profile.ENABLED:
        _profile.record("concatenate", out_data.nbytes)

    def backward(grad: np.ndarray) -> None:
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis if axis >= 0 else grad.ndim + axis] = slice(start, stop)
                t._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new ``axis``."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    if _profile.ENABLED:
        _profile.record("stack", out_data.nbytes)

    def backward(grad: np.ndarray) -> None:
        slabs = np.split(grad, len(tensors), axis=axis)
        for t, slab in zip(tensors, slabs):
            if t.requires_grad:
                t._accumulate(np.squeeze(slab, axis=axis))

    return Tensor._make(out_data, tensors, backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection: ``condition ? a : b`` (condition is constant)."""
    a_t = a if isinstance(a, Tensor) else Tensor(a)
    b_t = b if isinstance(b, Tensor) else Tensor(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a_t.data, b_t.data)
    if _profile.ENABLED:
        _profile.record("where", out_data.nbytes)

    def backward(grad: np.ndarray) -> None:
        if a_t.requires_grad:
            a_t._accumulate(np.where(cond, grad, 0.0))
        if b_t.requires_grad:
            b_t._accumulate(np.where(cond, 0.0, grad))

    return Tensor._make(out_data, (a_t, b_t), backward)
