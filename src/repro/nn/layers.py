"""Neural-network layers: Module base class and the layers FOSS uses.

The layer set mirrors what the paper's networks need: linear stacks for the
action selector and AAM output head, embeddings for plan-node features, layer
norm and multi-head attention (with an additive attention-mask) for the
QueryFormer-style state network.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import init
from repro.nn.tensor import Function, Tensor, _sum_to_shape
from repro.nn.functional import (
    FusedLinear,
    Segments,
    attend_segments,
    fused_linear,
    linear,
    segment_attention,
)


class Parameter(Tensor):
    """A tensor that is always trainable; collected by :class:`Module`."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class providing parameter registration and (de)serialization."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

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
            param.zero_grad()

    def train(self) -> "Module":
        self.training = True
        for module in self._modules.values():
            module.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for module in self._modules.values():
            module.eval()
        return self

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

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


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

    def forward(self, x: Tensor) -> Tensor:
        if self.bias is None:
            return FusedLinear.apply(x, self.weight)
        return FusedLinear.apply(x, self.weight, self.bias)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on arrays, without gradients, over the weights'
        ``.data`` as they are now."""
        return linear(x, self.weight.data, None if self.bias is None else self.bias.data)


def scatter_rows(ids: np.ndarray, rows: np.ndarray, num: int) -> np.ndarray:
    """``(num, dim)`` matrix holding, at row ``ids[i]``, the sum of ``rows[i]``.

    Scatter-add as one bincount over (id, column) cells: it adds a cell's
    occurrences in token order, exactly as ``np.add.at`` would, at a
    fraction of its per-element cost.
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

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= self.num_embeddings:
            raise IndexError(
                f"embedding ids out of range [0, {self.num_embeddings}): "
                f"min={ids.min()} max={ids.max()}"
            )
        return Lookup.apply(self.weight, ids=ids)


class Lookup(Function):
    """Rows ``ids`` of a weight table; the backward is one scatter-add."""

    __slots__ = ("ids", "num")

    def forward(ctx, weight, ids):
        ctx.ids, ctx.num = ids, len(weight)
        return weight[ids]

    def backward(ctx, grad):
        return (scatter_rows(ctx.ids.reshape(-1), grad.reshape(-1, grad.shape[-1]), ctx.num),)


class LayerNorm(Module):
    """Layer normalization over the last dimension, as one tape node."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        # ``x`` is passed twice: see :class:`Normalize`.
        return Normalize.apply(x, x, self.gamma, self.beta, eps=self.eps)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on arrays, without gradients."""
        return normalize(x, self.gamma.data, self.beta.data, self.eps)[0]


def normalize(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float):
    """The forward of :class:`Normalize` on arrays: ``(out, centered,
    shifted_var, std, normed)``, the output first and then the pieces its
    backward reads."""
    inv = 1.0 / x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True) * inv
    centered = x - mean
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv
    shifted_var = var + eps
    std = shifted_var**0.5
    normed = centered / std
    return normed * gamma + beta, centered, shifted_var, std, normed


class Normalize(Function):
    """``(x - mean) / (var + eps) ** 0.5 * gamma + beta`` over the last axis.

    The forward is the expression sequence of the op chain it replaces
    (``x.mean`` as ``sum * 1/d``, ``(var + eps).sqrt()`` as ``** 0.5``), and
    the backward composes that chain's eleven backward steps in tape order,
    so values and gradients are bitwise the chain's.  The chain reached
    ``x`` through two nodes, the centering ``sub`` and the mean's ``sum``,
    and the tape added their gradients into ``x`` one after the other; the
    caller lists ``x`` twice, and the backward returns those two gradients
    for the two slots, so :class:`Tensor` adds them in the same order.
    """

    __slots__ = ("inv", "centered", "shifted_var", "std", "normed", "gamma")

    def forward(ctx, x, x_again, gamma, beta, eps):
        out, ctx.centered, ctx.shifted_var, ctx.std, ctx.normed = normalize(x, gamma, beta, eps)
        ctx.inv, ctx.gamma = 1.0 / x.shape[-1], gamma
        return out

    def backward(ctx, grad):
        centered, std = ctx.centered, ctx.std
        grad_gamma = grad * ctx.normed if ctx.needs_grad[2] else None
        if not ctx.needs_grad[0]:
            return None, None, grad_gamma, grad
        # normed * gamma, then normed = centered / std
        grad_normed = grad * ctx.gamma
        grad_std = _sum_to_shape(-grad_normed * centered / (std**2), std.shape)
        # std = (var + eps) ** 0.5, var = (centered * centered).sum * 1/d;
        # centered's three arrivals are added in tape order
        grad_squares = grad_std * 0.5 * ctx.shifted_var ** (0.5 - 1) * ctx.inv
        grad_squares = np.broadcast_to(grad_squares, centered.shape)
        grad_centered = grad_normed / std + grad_squares * centered + grad_squares * centered
        # centered = x - mean, mean = x.sum * 1/d
        grad_mean = _sum_to_shape(-grad_centered, std.shape) * ctx.inv
        return grad_centered, np.broadcast_to(grad_mean, centered.shape), grad_gamma, grad


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.1, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = (self._rng.random(x.shape) >= self.p).astype(np.float64)
        return x * Tensor(keep / (1.0 - self.p))


class Sequential(Module):
    """Chain of modules applied in order.

    Adjacent ``Linear`` → ``ReLU``/``Tanh`` pairs are executed through the
    :func:`fused_linear` kernel (one tape node instead of three).  The
    fusion is purely an execution plan: module structure, parameter names
    and init order are unchanged, and the fused kernel's outputs and
    gradients are bitwise-equal to the unfused chain.  :meth:`infer` runs
    the same plan on arrays, without gradients.
    """

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._layers: List[Module] = []
        for index, module in enumerate(modules):
            setattr(self, f"layer{index}", module)
            self._layers.append(module)
        self._fusion_plan = self._build_fusion_plan()

    def _build_fusion_plan(self) -> List[Tuple[str, Module, Optional[str]]]:
        plan: List[Tuple[str, Module, Optional[str]]] = []
        i = 0
        while i < len(self._layers):
            layer = self._layers[i]
            nxt = self._layers[i + 1] if i + 1 < len(self._layers) else None
            if isinstance(layer, Linear) and isinstance(nxt, (ReLU, Tanh)):
                plan.append(("fused", layer, "relu" if isinstance(nxt, ReLU) else "tanh"))
                i += 2
            else:
                plan.append(("call", layer, None))
                i += 1
        return plan

    def forward(self, x: Tensor) -> Tensor:
        for kind, layer, activation in self._fusion_plan:
            if kind == "fused":
                x = fused_linear(x, layer.weight, layer.bias, activation)
            else:
                x = layer(x)
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` without gradients, bitwise: the fusion plan's
        steps in order, each fused pair one :func:`linear` over the layer's
        ``.data`` as it is now and any other layer its own ``infer``; no
        tensor, no tape."""
        for kind, layer, activation in self._fusion_plan:
            if kind == "fused":
                bias = None if layer.bias is None else layer.bias.data
                x = linear(x, layer.weight.data, bias, activation)
            else:
                x = layer.infer(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)


def leading_tokens(segments: Segments, rows: int) -> np.ndarray:
    """Token indices of the first ``rows`` positions of every row of a packed
    batch (see :func:`repro.nn.functional.segment_attention`), in row order."""
    index, start = [], 0
    for count, nodes, _ in segments:
        stop = start + count * nodes
        first = np.arange(start, stop, nodes)
        if rows != 1:
            first = (first[:, None] + np.arange(min(rows, nodes))).reshape(-1)
        index.append(first)
        start = stop
    return index[0] if len(index) == 1 else np.concatenate(index)


def _pack(x: Tensor, mask: Optional[np.ndarray], additive: Optional[np.ndarray]):
    """An unpacked input — (nodes, dim), or batched (batch, nodes, dim) — as a
    packed one: the token matrix, its single segment, and the batch size to
    restore on the way out (``None`` if ``x`` was not batched)."""
    if additive is None and mask is not None:
        mask_arr = np.asarray(mask, dtype=bool)
        if mask_arr.ndim == 2:
            mask_arr = mask_arr[None, :, :]
        additive = np.where(mask_arr, 0.0, -1e9)[:, None, :, :]
    if x.ndim == 2:
        return x, [(1, x.shape[0], additive)], None
    batch, nodes, dim = x.shape
    return x.reshape(batch * nodes, dim), [(batch, nodes, additive)], batch


class MultiHeadAttention(Module):
    """Multi-head self-attention with an additive boolean attention mask.

    The FOSS state network masks attention between *unreachable* node pairs
    of the plan tree (attention score forced to ~0), which is expressed here
    by passing ``mask[i, j] = True`` for reachable pairs and False otherwise.
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

    def forward(
        self,
        x: Tensor,
        mask: Optional[np.ndarray] = None,
        additive: Optional[np.ndarray] = None,
        rows: Optional[int] = None,
        segments: Optional[Segments] = None,
    ) -> Tensor:
        """Attend over nodes.

        With ``segments`` (``(rows, nodes, additive)`` runs, see
        :func:`repro.nn.functional.segment_attention`), ``x`` is a packed
        ``(tokens, dim)`` batch: the projections run once on that matrix and
        attention runs per segment.  Without it ``x`` is (nodes, dim) or
        batched (batch, nodes, dim) — one segment — and ``mask`` is a boolean
        (nodes, nodes) or (batch, nodes, nodes) array where True marks pairs
        allowed to attend to each other, or ``additive`` the precomputed
        term ``np.where(mask, 0.0, -1e9)[:, None, :, :]``.

        ``rows`` is how many leading positions of every row produce output
        (``None`` = all): keys and values still come from every node, but
        queries, score rows and the output projection run for those
        positions only — one ``(positions, dim)`` matrix — and the result is
        ``forward(x)`` at those positions up to GEMM blocking.

        :meth:`infer` is this composition on arrays; change both together.
        """
        batch = None
        if segments is None:
            x, segments, batch = _pack(x, mask, additive)
        scale = 1.0 / math.sqrt(self.head_dim)
        xq = x if rows is None else x[leading_tokens(segments, rows)]
        q, k, v, o = self.q_proj, self.k_proj, self.v_proj, self.out_proj
        # One kernel for split -> score -> mask -> softmax -> context -> merge.
        context = segment_attention(
            FusedLinear.apply(xq, q.weight, q.bias),
            FusedLinear.apply(x, k.weight, k.bias),
            FusedLinear.apply(x, v.weight, v.bias),
            segments, self.num_heads, scale, rows,
        )
        out = FusedLinear.apply(context, o.weight, o.bias)
        return out if batch is None else out.reshape(batch, -1, self.dim)

    def infer(self, x: np.ndarray, segments: Segments, rows: Optional[int] = None) -> np.ndarray:
        """:meth:`forward` without gradients, bitwise, for a packed
        ``(tokens, dim)`` array: the same array functions in the same order
        over each parameter's ``.data``, keeping nothing."""
        xq = x if rows is None else x[leading_tokens(segments, rows)]
        q, k, v, o = self.q_proj, self.k_proj, self.v_proj, self.out_proj
        context = attend_segments(
            linear(xq, q.weight.data, q.bias.data),
            linear(x, k.weight.data, k.bias.data),
            linear(x, v.weight.data, v.bias.data),
            segments, self.num_heads, 1.0 / math.sqrt(self.head_dim), rows,
        )[0]
        return linear(context, o.weight.data, o.bias.data)


class FeedForward(Module):
    """Transformer position-wise feed-forward block."""

    def __init__(self, dim: int, hidden: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.fc1 = Linear(dim, hidden, rng=rng, init_scheme="kaiming")
        self.fc2 = Linear(hidden, dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        # :meth:`infer` is this composition on arrays; change both together.
        fc1, fc2 = self.fc1, self.fc2
        hidden = FusedLinear.apply(x, fc1.weight, fc1.bias, activation="relu")
        return FusedLinear.apply(hidden, fc2.weight, fc2.bias)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on arrays, without gradients."""
        fc1, fc2 = self.fc1, self.fc2
        hidden = linear(x, fc1.weight.data, fc1.bias.data, "relu")
        return linear(hidden, fc2.weight.data, fc2.bias.data)


class TransformerEncoderLayer(Module):
    """Pre-norm transformer encoder block with maskable attention."""

    def __init__(self, dim: int, num_heads: int, ff_hidden: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.attn = MultiHeadAttention(dim, num_heads, rng=rng)
        self.ff = FeedForward(dim, ff_hidden, rng=rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)

    def forward(
        self,
        x: Tensor,
        mask: Optional[np.ndarray] = None,
        additive: Optional[np.ndarray] = None,
        rows: Optional[int] = None,
        segments: Optional[Segments] = None,
    ) -> Tensor:
        """``rows`` (``None`` = all) is how many leading positions of every
        row the block outputs: every node still feeds ``norm1`` and the keys
        and values, but the residual, ``norm2`` and the feed-forward run for
        those positions only — ``forward(x)`` there, for a caller that reads
        nothing else.  Being position-wise, that part runs on the
        ``(positions, dim)`` matrix.  ``x``, ``mask`` / ``additive`` and
        ``segments`` are :meth:`MultiHeadAttention.forward`'s.  :meth:`infer`
        is this composition on arrays; change both together."""
        batch = None
        if segments is None:
            x, segments, batch = _pack(x, mask, additive)
        attended = self.attn(self.norm1(x), rows=rows, segments=segments)
        if rows is not None:
            x = x[leading_tokens(segments, rows)]
        x = x + attended
        out = x + self.ff(self.norm2(x))
        return out if batch is None else out.reshape(batch, -1, out.shape[-1])

    def infer(self, x: np.ndarray, segments: Segments, rows: Optional[int] = None) -> np.ndarray:
        """:meth:`forward` without gradients, bitwise, for a packed
        ``(tokens, dim)`` array: each submodule's ``infer`` in
        :meth:`forward`'s order — no tensor, no tape, nothing kept."""
        attended = self.attn.infer(self.norm1.infer(x), segments, rows)
        if rows is not None:
            x = x[leading_tokens(segments, rows)]
        x = x + attended
        return x + self.ff.infer(self.norm2.infer(x))


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
