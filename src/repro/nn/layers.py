"""Neural-network layers: Module base class and the layers FOSS uses.

The layer set mirrors what the paper's networks need: linear stacks for the
action selector and AAM output head, embeddings for plan-node features, layer
norm and multi-head attention (with an additive attention-mask) for the
QueryFormer-style state network.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import init
from repro.nn import profile as _profile
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.nn.functional import fused_attention, fused_linear


class Parameter(Tensor):
    """A tensor that is always trainable; collected by :class:`Module`."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)
        # Parameters must stay trainable even if created under no_grad().
        self.requires_grad = True


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
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        if missing:
            raise KeyError(f"state dict missing parameters: {sorted(missing)}")
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {value.shape} vs {param.data.shape}"
                )
            param.data = value.copy()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

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
        return fused_linear(x, self.weight, self.bias)


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
        weight = self.weight
        out_data = weight.data[ids]
        if _profile.ENABLED:
            _profile.record("embedding", out_data.nbytes)
        if not is_grad_enabled():
            return Tensor._inference(out_data)
        flat_ids = ids.reshape(-1)
        num, dim = self.num_embeddings, self.dim

        def backward(grad: np.ndarray) -> None:
            # Scatter-add as one bincount over (id, column) cells: it adds a
            # cell's occurrences in token order, exactly as np.add.at would,
            # at a fraction of its per-element cost.
            cells = (flat_ids[:, None] * dim + np.arange(dim)).reshape(-1)
            full = np.bincount(cells, weights=grad.reshape(-1), minlength=num * dim)
            weight._accumulate(full.reshape(num, dim))

        return Tensor._node(out_data, (weight,), backward)


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        if not is_grad_enabled():
            # Same expression sequence as the tape path (sum * 1/d, ** 0.5)
            # so outputs stay bitwise-identical.
            profiling = _profile.ENABLED
            t0 = time.perf_counter() if profiling else 0.0
            d = x.data
            inv = 1.0 / d.shape[-1]
            mean = d.sum(axis=-1, keepdims=True) * inv
            centered = d - mean
            var = (centered * centered).sum(axis=-1, keepdims=True) * inv
            normed = centered / (var + self.eps) ** 0.5
            out_data = normed * self.gamma.data + self.beta.data
            if profiling:
                _profile.record("layernorm_inf", out_data.nbytes, time.perf_counter() - t0)
            return Tensor._inference(out_data)
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta


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
    :func:`fused_linear` kernel (one tape node / one inference tensor
    instead of three).  The fusion is purely an execution plan: module
    structure, parameter names and init order are unchanged, and the fused
    kernel's outputs and gradients are bitwise-equal to the unfused chain.
    """

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._layers: List[Module] = []
        self._fusion_plan: Optional[List[Tuple[str, Module, Optional[str]]]] = None
        for index, module in enumerate(modules):
            setattr(self, f"layer{index}", module)
            self._layers.append(module)

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
        if self._fusion_plan is None:
            self._fusion_plan = self._build_fusion_plan()
        for kind, layer, activation in self._fusion_plan:
            if kind == "fused":
                x = fused_linear(x, layer.weight, layer.bias, activation)
            else:
                x = layer(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)


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
    ) -> Tensor:
        """Attend over nodes.

        ``x`` is (nodes, dim) or batched (batch, nodes, dim); ``mask`` is a
        boolean (nodes, nodes) or (batch, nodes, nodes) array where True marks
        pairs allowed to attend to each other.  Callers that apply the same
        mask to several attention layers may pass the precomputed
        ``additive`` term (``np.where(mask, 0.0, -1e9)[:, None, :, :]``)
        instead, which skips rebuilding it per layer.

        ``rows`` is how many leading positions produce output (``None`` =
        all): keys and values still come from every node, but queries, score
        rows and the output projection run for positions ``[:rows]`` only,
        and the result is ``forward(x)[..., :rows, :]`` up to GEMM blocking.
        Those positions go through ``q_proj`` / ``out_proj`` as one
        ``(batch * rows, dim)`` matrix: a 3-D ``(batch, 1, dim)`` operand
        would make the weight gradient ``batch`` outer products and a
        ``(batch, dim, dim)`` temporary, as costly as all positions.
        """
        squeeze = x.ndim == 2
        if additive is None and mask is not None:
            mask_arr = np.asarray(mask, dtype=bool)
            if mask_arr.ndim == 2:
                mask_arr = mask_arr[None, :, :]
            additive = np.where(mask_arr, 0.0, -1e9)[:, None, :, :]
        scale = 1.0 / math.sqrt(self.head_dim)
        heads, head_dim = self.num_heads, self.head_dim
        b, n = (1, x.shape[0]) if squeeze else x.shape[:2]
        m = n if rows is None else min(rows, n)
        if rows is not None and additive is not None:
            additive = additive[:, :, :m, :]
        # shape the m output positions take through q_proj / out_proj, and
        # the shape handed back
        proj_shape = (b, m, self.dim) if rows is None else (b * m, self.dim)
        out_shape = (m, self.dim) if squeeze else (b, m, self.dim)

        if not is_grad_enabled():
            # Whole block as one numpy expression chain — the identical
            # expression sequence as the tape path below (projection, scaled
            # scores, masked shifted softmax, context, merge), so outputs
            # are bitwise-equal.
            profiling = _profile.ENABLED
            t0 = time.perf_counter() if profiling else 0.0
            xd = x.data
            if squeeze:
                xd = xd.reshape(1, *xd.shape)
            xq = xd if rows is None else xd[:, :m].reshape(proj_shape)
            qd = np.swapaxes((xq @ self.q_proj.weight.data + self.q_proj.bias.data).reshape(b, m, heads, head_dim), 1, 2)
            kd = np.swapaxes((xd @ self.k_proj.weight.data + self.k_proj.bias.data).reshape(b, n, heads, head_dim), 1, 2)
            vd = np.swapaxes((xd @ self.v_proj.weight.data + self.v_proj.bias.data).reshape(b, n, heads, head_dim), 1, 2)
            scores = (qd @ np.swapaxes(kd, -2, -1)) * scale
            if additive is not None:
                scores = scores + additive
            shifted = scores - scores.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            attn = e / e.sum(axis=-1, keepdims=True)
            merged = np.swapaxes(attn @ vd, 1, 2).reshape(proj_shape)
            out = merged @ self.out_proj.weight.data + self.out_proj.bias.data
            if out.shape != out_shape:
                out = out.reshape(out_shape)
            if profiling:
                _profile.record("attention_inf", out.nbytes, time.perf_counter() - t0)
            return Tensor._inference(out)

        if squeeze:
            x = x.reshape(1, *x.shape)
        xq = x if rows is None else x[:, :m].reshape(proj_shape)
        # (b, n, dim) -> (b, heads, n, head_dim); queries: the first m nodes
        q = self.q_proj(xq).reshape(b, m, heads, head_dim).transpose(1, 2)
        k = self.k_proj(x).reshape(b, n, heads, head_dim).transpose(1, 2)
        v = self.v_proj(x).reshape(b, n, heads, head_dim).transpose(1, 2)
        # One kernel for score -> mask -> softmax -> context; bitwise-equal
        # to the unfused transpose/matmul/softmax chain it replaced.
        context = fused_attention(q, k, v, additive, scale)  # (b, heads, m, head_dim)
        merged = context.transpose(1, 2).reshape(proj_shape)
        out = self.out_proj(merged)
        if out.shape != out_shape:
            out = out.reshape(out_shape)
        return out


class FeedForward(Module):
    """Transformer position-wise feed-forward block."""

    def __init__(self, dim: int, hidden: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.fc1 = Linear(dim, hidden, rng=rng, init_scheme="kaiming")
        self.fc2 = Linear(hidden, dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return fused_linear(
            fused_linear(x, self.fc1.weight, self.fc1.bias, "relu"),
            self.fc2.weight,
            self.fc2.bias,
        )


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
    ) -> Tensor:
        """``rows`` (``None`` = all) is how many leading positions the block
        outputs: every node still feeds ``norm1`` and the keys and values,
        but the residual, ``norm2`` and the feed-forward run for positions
        ``[:rows]`` only — ``forward(x)[..., :rows, :]`` for a caller that
        reads nothing else.  Being position-wise, that part runs on the
        ``(positions, dim)`` matrix (see :meth:`MultiHeadAttention.forward`)."""
        attended = self.attn(self.norm1(x), mask=mask, additive=additive, rows=rows)
        if rows is None:
            x = x + attended
            return x + self.ff(self.norm2(x))
        head = x[..., :rows, :]
        dim = head.shape[-1]
        flat = head.reshape(-1, dim) + attended.reshape(-1, dim)
        flat = flat + self.ff(self.norm2(flat))
        return flat.reshape(head.shape)


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
