"""Neural-network layers: Module base class and the layers FOSS uses.

The layer set mirrors what the paper's networks need: linear stacks for the
action selector and AAM output head, embeddings for plan-node features, layer
norm and multi-head attention (with an additive attention mask) for the
QueryFormer-style state network.

Every module has one ``forward``, and it returns ``(output, pullback)``.
``pullback(grad)`` takes the gradient of the output, adds each parameter's
gradient into its :class:`Parameter`'s ``.grad`` and returns the gradient
of the input.  Inference calls the same ``forward`` and drops the
pullback, so a forward computes only what its output needs plus the pieces
the array functions hand back anyway.  A forward reads each weight's
``.data`` when it runs and caches nothing, because ``load_state_dict``
rebinds it and Adam updates it in place.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import init
from repro.nn.functional import (
    Segments,
    _sum_to_shape,
    attend_segments,
    attend_segments_backward,
    linear,
    linear_backward,
)


class Parameter:
    """A trainable array and the gradient accumulated for it.

    The parameter owns its ``.grad``: the first gradient to arrive is
    copied and later ones are added in place, because ``clip_grad_norm``
    and Adam scale ``grad`` in place and one upstream array may reach two
    parameters (a pullback hands out views of the gradient it was given).
    """

    __slots__ = ("data", "grad")

    def __init__(self, data) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None

    def accumulate(self, grad: np.ndarray) -> None:
        """Add one gradient arrival, summed down to the parameter's shape."""
        grad = _sum_to_shape(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad


class Module:
    """Base class providing parameter registration and (de)serialization."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def parameters(self) -> List[Parameter]:
        params = list(self._parameters.values())
        for module in self._modules.values():
            params.extend(module.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Assign every parameter from ``state``, or raise and assign none."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        if missing:
            raise KeyError(f"state dict missing parameters: {sorted(missing)}")
        values = {name: np.array(state[name], dtype=np.float64) for name in own}
        for name, param in own.items():
            if values[name].shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {values[name].shape} vs {param.data.shape}"
                )
        for name, param in own.items():
            param.data = values[name]

    def __init_subclass__(cls, **kwargs) -> None:
        # Calling a module is calling its forward, with no frame in between:
        # inference runs every forward of a served request.
        super().__init_subclass__(**kwargs)
        cls.__call__ = cls.forward

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


def dense(x: np.ndarray, weight: Parameter, bias: Optional[Parameter], activation=None):
    """``activation(x @ weight + bias)`` over the parameters' current
    ``.data``, and its pullback."""
    out = linear(x, weight.data, None if bias is None else bias.data, activation)
    return out, lambda grad: dense_backward(grad, x, weight, bias, out, activation)


def dense_backward(grad, x, weight: Parameter, bias: Optional[Parameter], out=None, activation=None):
    """The pullback body of ``out = dense(x, weight, bias, activation)``:
    adds the weight's and the bias's gradients, returns ``x``'s.  Like every
    pullback it reads the weight as it is now, so it runs before the
    optimizer steps (``out`` is read only under an activation)."""
    grad_x, grad_weight, grad_bias = linear_backward(grad, x, weight.data, out, activation)
    weight.accumulate(grad_weight)
    if bias is not None:
        bias.accumulate(grad_bias)
    return grad_x


def gather_backward(grad: np.ndarray, index, shape: tuple) -> np.ndarray:
    """The gradient of ``x[index]`` for an ``x`` of ``shape``: ``grad``
    added into zeros at ``index``, repeated indices in order."""
    full = np.zeros(shape)
    np.add.at(full, index, grad)
    return full


class Linear(Module):
    """Affine transform ``x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        bias: bool = True,
        init_scheme: str = "xavier",
        gain: float = 1.0,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        if init_scheme == "xavier":
            weight = init.xavier_uniform((in_features, out_features), rng, gain=gain)
        elif init_scheme == "orthogonal":
            weight = init.orthogonal((in_features, out_features), rng, gain=gain)
        elif init_scheme == "kaiming":
            weight = init.kaiming_uniform((in_features, out_features), rng)
        else:
            raise ValueError(f"unknown init scheme: {init_scheme}")
        self.weight = Parameter(weight)
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: np.ndarray):
        return dense(x, self.weight, self.bias)


def scatter_rows(ids: np.ndarray, rows: np.ndarray, num: int) -> np.ndarray:
    """``(num, dim)`` matrix holding, at row ``ids[i]``, the sum of ``rows[i]``.

    Scatter-add as one bincount over (id, column) cells: it adds a cell's
    occurrences in token order, exactly as ``np.add.at`` would, at a
    fraction of its per-element cost.  It is an embedding lookup's
    backward.
    """
    dim = rows.shape[-1]
    cells = (ids[:, None] * dim + np.arange(dim)).reshape(-1)
    return np.bincount(cells, weights=rows.reshape(-1), minlength=num * dim).reshape(num, dim)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(init.normal((num_embeddings, dim), rng, std=0.05))

    def forward(self, ids: np.ndarray):
        """Rows ``ids`` of the table; the pullback scatters ``grad`` back
        into the table's gradient and returns ``None`` (ids have none)."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= self.num_embeddings:
            raise IndexError(
                f"embedding ids out of range [0, {self.num_embeddings}): "
                f"min={ids.min()} max={ids.max()}"
            )
        weight = self.weight

        def pullback(grad):
            rows = grad.reshape(-1, grad.shape[-1])
            weight.accumulate(scatter_rows(ids.reshape(-1), rows, len(weight.data)))

        return weight.data[ids], pullback


def normalize(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float):
    """``(x - mean) / (var + eps) ** 0.5 * gamma + beta`` over the last axis:
    ``(out, centered, shifted_var, std)``, the output first and then the
    pieces :func:`normalize_backward` reads.  ``mean`` is ``sum * 1/d``
    and the square root ``** 0.5``: the op chain's expressions."""
    inv = 1.0 / x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True) * inv
    centered = x - mean
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv
    shifted_var = var + eps
    std = shifted_var**0.5
    return (centered / std) * gamma + beta, centered, shifted_var, std


def normalize_backward(grad, gamma, centered, shifted_var, std):
    """Gradients of :func:`normalize`: ``(centered_term, mean_term,
    grad_gamma)``, and ``grad`` itself is beta's.

    The op chain reached ``x`` through two nodes, the centering ``sub`` and
    the mean's ``sum``, and the tape added their gradients into ``x`` one
    after the other: the two terms are those, in that order.  The chain's
    eleven backward steps run in tape order; ``centered / std`` is
    recomputed rather than kept by the forward, bitwise the same.
    """
    inv = 1.0 / centered.shape[-1]
    grad_gamma = grad * (centered / std)
    # normed * gamma, then normed = centered / std
    grad_normed = grad * gamma
    grad_std = _sum_to_shape(-grad_normed * centered / (std**2), std.shape)
    # std = (var + eps) ** 0.5, var = (centered * centered).sum * 1/d;
    # centered's three arrivals are added in tape order
    grad_squares = grad_std * 0.5 * shifted_var ** (0.5 - 1) * inv
    grad_squares = np.broadcast_to(grad_squares, centered.shape)
    grad_centered = grad_normed / std + grad_squares * centered + grad_squares * centered
    # centered = x - mean, mean = x.sum * 1/d
    grad_mean = _sum_to_shape(-grad_centered, std.shape) * inv
    return grad_centered, np.broadcast_to(grad_mean, centered.shape), grad_gamma


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: np.ndarray):
        """The normalized ``x`` and its pullback.

        ``pullback(grad, arrived=None)``: ``arrived`` is a gradient that
        reached ``x`` before this one (a residual branch's); the two terms
        of :func:`normalize_backward` are added to it one after the other,
        as the tape added them.
        """
        gamma, beta = self.gamma, self.beta
        out, *saved = normalize(x, gamma.data, beta.data, self.eps)

        def pullback(grad, arrived=None):
            centered_term, mean_term, grad_gamma = normalize_backward(grad, gamma.data, *saved)
            gamma.accumulate(grad_gamma)
            beta.accumulate(grad)
            if arrived is not None:
                centered_term = arrived + centered_term
            return centered_term + mean_term

        return out, pullback


class ReLU(Module):
    def forward(self, x: np.ndarray):
        return np.maximum(x, 0.0), lambda grad: grad * (x > 0)


class Tanh(Module):
    def forward(self, x: np.ndarray):
        out = np.tanh(x)
        return out, lambda grad: grad * (1.0 - out**2)


class Sequential(Module):
    """Chain of modules applied in order.

    Adjacent ``Linear`` → ``ReLU``/``Tanh`` pairs run as one :func:`dense`
    with the activation.  The fusion is purely an execution plan: module
    structure, parameter names and init order are unchanged, and the fused
    step's outputs and gradients are bitwise the unfused pair's.
    """

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._layers: List[Module] = []
        for index, module in enumerate(modules):
            setattr(self, f"layer{index}", module)
            self._layers.append(module)
        self._fusion_plan = self._build_fusion_plan()

    def _build_fusion_plan(self) -> List[Tuple[Module, Optional[str]]]:
        """``(layer, activation)`` steps: a ``Linear`` fused with the
        activation after it, or any layer alone (activation ``None``)."""
        plan: List[Tuple[Module, Optional[str]]] = []
        i = 0
        while i < len(self._layers):
            layer = self._layers[i]
            nxt = self._layers[i + 1] if i + 1 < len(self._layers) else None
            if isinstance(layer, Linear) and isinstance(nxt, (ReLU, Tanh)):
                plan.append((layer, "relu" if isinstance(nxt, ReLU) else "tanh"))
                i += 2
            else:
                plan.append((layer, None))
                i += 1
        return plan

    def forward(self, x: np.ndarray):
        steps = []
        for layer, activation in self._fusion_plan:
            if activation is None:
                x, step = layer(x)
            else:
                x, step = dense(x, layer.weight, layer.bias, activation)
            steps.append(step)

        def pullback(grad):
            for step in reversed(steps):
                grad = step(grad)
            return grad

        return x, pullback

    def __iter__(self) -> Iterator[Module]:
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)


def leading_tokens(segments: Segments, rows: int) -> np.ndarray:
    """Token indices of the first ``rows`` positions of every row of a packed
    batch (see :func:`repro.nn.functional.attend_segments`), in row order."""
    index, start = [], 0
    for count, nodes, _ in segments:
        stop = start + count * nodes
        first = np.arange(start, stop, nodes)
        if rows != 1:
            first = (first[:, None] + np.arange(min(rows, nodes))).reshape(-1)
        index.append(first)
        start = stop
    return index[0] if len(index) == 1 else np.concatenate(index)


class MultiHeadAttention(Module):
    """Multi-head self-attention over a packed batch, masked per segment.

    The FOSS state network masks attention between *unreachable* node pairs
    of the plan tree (attention score forced to ~0): a segment's additive
    term is 0 for reachable pairs and -1e9 for the others.
    """

    def __init__(self, dim: int, num_heads: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError("dim must be divisible by num_heads")
        rng = rng if rng is not None else np.random.default_rng()
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.q_proj = Linear(dim, dim, rng=rng)
        self.k_proj = Linear(dim, dim, rng=rng)
        self.v_proj = Linear(dim, dim, rng=rng)
        self.out_proj = Linear(dim, dim, rng=rng)

    def forward(self, x: np.ndarray, segments: Segments, rows: Optional[int] = None,
                index: Optional[np.ndarray] = None):
        """Attend over a packed ``(tokens, dim)`` batch cut into
        ``segments`` (``(rows, nodes, additive)`` runs, see
        :func:`repro.nn.functional.attend_segments`): the projections run
        once on the matrix and attention runs per segment.

        ``rows`` is how many leading positions of every row produce output
        (``None`` = all): keys and values still come from every node, but
        queries, score rows and the output projection run for those
        positions only — one ``(positions, dim)`` matrix — and the result is
        ``forward(x)`` at those positions up to GEMM blocking.  ``index``
        is ``leading_tokens(segments, rows)`` when the caller already has it.
        """
        if index is None and rows is not None:
            index = leading_tokens(segments, rows)
        xq = x if index is None else x[index]
        qp, kp, vp, op = self.q_proj, self.k_proj, self.v_proj, self.out_proj
        q = linear(xq, qp.weight.data, qp.bias.data)
        k = linear(x, kp.weight.data, kp.bias.data)
        v = linear(x, vp.weight.data, vp.bias.data)
        heads, scale = self.num_heads, 1.0 / math.sqrt(self.head_dim)
        context, saved = attend_segments(q, k, v, segments, heads, scale, rows)

        def pullback(grad):
            grad_context = dense_backward(grad, context, op.weight, op.bias)
            grad_q, grad_k, grad_v = attend_segments_backward(
                grad_context, q, k, v, saved, heads, scale
            )
            # ``x`` takes the query path's gradient first, then k's, then v's
            grad_x = dense_backward(grad_q, xq, qp.weight, qp.bias)
            if index is not None:
                grad_x = gather_backward(grad_x, index, x.shape)
            grad_x = grad_x + dense_backward(grad_k, x, kp.weight, kp.bias)
            return grad_x + dense_backward(grad_v, x, vp.weight, vp.bias)

        return linear(context, op.weight.data, op.bias.data), pullback


class FeedForward(Module):
    """Transformer position-wise feed-forward block."""

    def __init__(self, dim: int, hidden: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.fc1 = Linear(dim, hidden, rng=rng, init_scheme="kaiming")
        self.fc2 = Linear(hidden, dim, rng=rng)

    def forward(self, x: np.ndarray):
        fc1, fc2 = self.fc1, self.fc2
        hidden = linear(x, fc1.weight.data, fc1.bias.data, "relu")

        def pullback(grad):
            grad_hidden = dense_backward(grad, hidden, fc2.weight, fc2.bias)
            return dense_backward(grad_hidden, x, fc1.weight, fc1.bias, hidden, "relu")

        return linear(hidden, fc2.weight.data, fc2.bias.data), pullback


class TransformerEncoderLayer(Module):
    """Pre-norm transformer encoder block with maskable attention."""

    def __init__(self, dim: int, num_heads: int, ff_hidden: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.attn = MultiHeadAttention(dim, num_heads, rng=rng)
        self.ff = FeedForward(dim, ff_hidden, rng=rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)

    def forward(self, x: np.ndarray, segments: Segments, rows: Optional[int] = None):
        """``rows`` (``None`` = all) is how many leading positions of every
        row the block outputs: every node still feeds ``norm1`` and the keys
        and values, but the residual, ``norm2`` and the feed-forward run for
        those positions only — ``forward(x)`` there, for a caller that reads
        nothing else.  Being position-wise, that part runs on the
        ``(positions, dim)`` matrix.  ``x`` and ``segments`` are
        :meth:`MultiHeadAttention.forward`'s."""
        index = None if rows is None else leading_tokens(segments, rows)
        normed, norm1_back = self.norm1(x)
        attended, attn_back = self.attn(normed, segments, rows, index)
        mid = (x if index is None else x[index]) + attended
        normed2, norm2_back = self.norm2(mid)
        fed, ff_back = self.ff(normed2)
        shape = x.shape  # the pullback keeps the input's shape, not the input

        def pullback(grad):
            # each residual's gradient reaches its input before its norm's
            grad_mid = norm2_back(ff_back(grad), arrived=grad)
            residual = grad_mid if index is None else gather_backward(grad_mid, index, shape)
            return norm1_back(attn_back(grad_mid), arrived=residual)

        return mid + fed, pullback


def mlp(
    sizes: Sequence[int],
    rng: Optional[np.random.Generator] = None,
    activation: str = "tanh",
    out_gain: float = 1.0,
) -> Sequential:
    """Build a fully-connected stack; the idiomatic PPO body constructor."""
    rng = rng if rng is not None else np.random.default_rng()
    act = {"tanh": Tanh, "relu": ReLU}[activation]
    layers: List[Module] = []
    for i in range(len(sizes) - 1):
        last = i == len(sizes) - 2
        gain = out_gain if last else math.sqrt(2.0)
        layers.append(Linear(sizes[i], sizes[i + 1], rng=rng, init_scheme="orthogonal", gain=gain))
        if not last:
            layers.append(act())
    return Sequential(*layers)
