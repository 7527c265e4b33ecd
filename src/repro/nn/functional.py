"""Stateless differentiable functions built on :mod:`repro.nn.tensor`.

Besides the loss/softmax helpers this module hosts the fused kernels, each
one :class:`~repro.nn.tensor.Function`: :func:`fused_linear` and
:func:`segment_attention`, attention over a packed ``(tokens, dim)`` batch
cut into node-count segments.  Each runs its whole forward as plain numpy
expressions — the *same* expressions the unfused ``Tensor`` op chain
evaluates, so outputs are bitwise-identical — and its backward composes the
unfused ops' backward passes exactly.

**Op math.**  Each fused op's forward is one plain array function
(:func:`linear`, :func:`attend_segments`), written once: the tape op calls
it and keeps what its backward reads, and the no-grad kernels
(:meth:`repro.nn.layers.TransformerEncoderLayer.infer` and the AAM's
statevec and head kernels) call it and keep nothing, so the two paths
evaluate the same expressions and agree bitwise.  Likewise
:func:`log_softmax_array` is :func:`log_softmax` on arrays, for the
sampled policy step.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn.tensor import (  # noqa: F401 - concatenate/stack/where re-exported
    Function,
    Tensor,
    _sum_to_shape,
    concatenate,
    stack,
    where,
)

#: A packed batch's runs of rows with equal node count: ``(rows, nodes,
#: additive)`` each, see :func:`segment_attention`.
Segments = Sequence[Tuple[int, int, Optional[np.ndarray]]]

__all__ = [
    "log_softmax",
    "log_softmax_array",
    "mse_loss",
    "fused_linear",
    "linear",
    "segment_attention",
    "attend_segments",
    "concatenate",
    "stack",
    "where",
]


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``; :func:`log_softmax_array`
    is this on arrays, so change both together."""
    shifted = logits - logits.data.max(axis=axis, keepdims=True)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def log_softmax_array(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """:func:`log_softmax` on arrays: the numpy expressions its four ops
    evaluate, in their order, so the two agree bitwise."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def linear(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    activation: Optional[str] = None,
) -> np.ndarray:
    """``activation(x @ weight + bias)`` on arrays: the forward of
    :class:`FusedLinear`.  ``activation`` is ``None``, ``"relu"`` or
    ``"tanh"``."""
    out = x @ weight
    if bias is not None:
        out = out + bias
    if activation is None:
        return out
    if activation == "relu":
        return np.maximum(out, 0.0)
    if activation == "tanh":
        return np.tanh(out)
    raise ValueError(f"unknown fused activation: {activation!r}")


class FusedLinear(Function):
    """``activation(x @ weight + bias)``; see :func:`fused_linear`."""

    __slots__ = ("x", "weight", "out", "activation")

    def forward(ctx, x, weight, bias=None, activation=None):
        out = linear(x, weight, bias, activation)
        ctx.x, ctx.weight, ctx.out, ctx.activation = x, weight, out, activation
        return out

    def backward(ctx, grad):
        # activation backward (identical to the ReLU/Tanh ops'); a ReLU
        # output is positive exactly where its input is
        if ctx.activation == "relu":
            grad = grad * (ctx.out > 0)
        elif ctx.activation == "tanh":
            grad = grad * (1.0 - ctx.out**2)
        need_x, need_weight = ctx.needs_grad[:2]
        x = ctx.x
        # matmul backward, mirroring MatMul's branches; the bias (the `+ b`
        # add node) takes ``grad`` as is and its accumulation broadcasts down
        grad_weight = None
        if need_weight:
            grad_weight = np.outer(x, grad) if x.ndim == 1 else np.swapaxes(x, -1, -2) @ grad
        grad_x = grad @ np.swapaxes(ctx.weight, -1, -2) if need_x else None
        return grad_x, grad_weight, grad


def fused_linear(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    activation: Optional[str] = None,
) -> Tensor:
    """``activation(x @ weight + bias)`` as one kernel / one tape node.

    Forward runs the identical numpy expressions as the unfused chain
    (``x @ W`` → ``+ b`` → ``.relu()``/``.tanh()``), so outputs are
    bitwise-equal; backward composes the unfused ops' gradients, so
    parameter gradients match too.  ``activation`` is ``None``, ``"relu"``
    or ``"tanh"``.
    """
    operands = (x, weight) if bias is None else (x, weight, bias)
    return FusedLinear.apply(*operands, activation=activation)


def _heads(data: np.ndarray, start: int, rows: int, nodes: int, heads: int) -> np.ndarray:
    """``rows * nodes`` tokens of a packed ``(tokens, dim)`` matrix from
    ``start`` on, as a ``(rows, heads, nodes, head_dim)`` view."""
    return data[start : start + rows * nodes].reshape(rows, nodes, heads, -1).swapaxes(1, 2)


def _attend(qd, kd, vd, additive, scale):
    """``softmax(q @ k^T * scale + additive) @ v`` on head-split arrays, with
    the softmax pieces the backward needs."""
    scores = (qd @ np.swapaxes(kd, -2, -1)) * scale
    if additive is not None:
        scores = scores + additive
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    sm = e.sum(axis=-1, keepdims=True)
    attn = e / sm
    return attn @ vd, (attn, e, sm)


def _attend_backward(grad, qd, kd, vd, attn, e, sm, scale):
    """Gradients of :func:`_attend` for q, k, v, composing the unfused
    chain's backward steps in tape order."""
    # ctx = attn @ v
    gattn = grad @ np.swapaxes(vd, -1, -2)
    gv = np.swapaxes(attn, -1, -2) @ grad
    # attn = e / sm : div backward contributes to e and sm, then the sum
    # node folds sm's grad back into e (same order as the tape).
    ge = gattn / sm
    gsm = _sum_to_shape(-gattn * e / (sm**2), sm.shape)
    ge = ge + np.broadcast_to(gsm, e.shape)
    # e = exp(shifted); shift/mask-add are constants, mul is by scale
    gs0 = ge * e * scale
    # s0 = q @ k^T
    return gs0 @ kd, np.swapaxes(np.swapaxes(qd, -1, -2) @ gs0, -2, -1), gv


def attend_segments(qd, kd, vd, segments, heads, scale, lead):
    """The forward of :class:`SegmentAttention` on arrays: ``(out, saved)``.

    ``out`` has ``qd``'s shape; ``saved`` holds, per segment, its token
    offsets and sizes with the head-split views and softmax pieces its
    backward reads.
    """
    out = np.empty_like(qd)
    saved = []
    q_start = k_start = 0
    for rows, nodes, additive in segments:
        m = nodes if lead is None else min(lead, nodes)
        if additive is not None and m < nodes:
            additive = additive[:, :, :m, :]
        views = (
            _heads(qd, q_start, rows, m, heads),
            _heads(kd, k_start, rows, nodes, heads),
            _heads(vd, k_start, rows, nodes, heads),
        )
        context, softmax_parts = _attend(*views, additive, scale)
        _heads(out, q_start, rows, m, heads)[...] = context
        saved.append((q_start, k_start, rows, m, nodes, views + softmax_parts))
        q_start += rows * m
        k_start += rows * nodes
    return out, saved


class SegmentAttention(Function):
    """Attention over a packed batch; see :func:`segment_attention`."""

    __slots__ = ("operands", "saved", "heads", "scale")

    def forward(ctx, qd, kd, vd, segments, heads, scale, lead):
        out, ctx.saved = attend_segments(qd, kd, vd, segments, heads, scale, lead)
        ctx.operands, ctx.heads, ctx.scale = (qd, kd, vd), heads, scale
        return out

    def backward(ctx, grad):
        heads = ctx.heads
        grads = tuple(np.empty_like(operand) for operand in ctx.operands)
        for q_start, k_start, rows, m, nodes, cache in ctx.saved:
            parts = _attend_backward(_heads(grad, q_start, rows, m, heads), *cache, ctx.scale)
            _heads(grads[0], q_start, rows, m, heads)[...] = parts[0]
            _heads(grads[1], k_start, rows, nodes, heads)[...] = parts[1]
            _heads(grads[2], k_start, rows, nodes, heads)[...] = parts[2]
        return grads


def segment_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    segments: Segments,
    heads: int,
    scale: float,
    lead: Optional[int] = None,
) -> Tensor:
    """Multi-head attention over a packed batch, as one tape node.

    ``k`` and ``v`` are ``(tokens, dim)``: the rows of a batch laid end to
    end, each row contributing its own number of nodes.  ``segments`` cuts
    that into runs of rows with equal node count, ``(rows, nodes,
    additive)`` each: such a run is a contiguous token slice, viewed as
    ``(rows, heads, nodes, head_dim)`` and attended with its own constant
    mask term (``(rows, 1, nodes, nodes)``, or ``None``) — no row ever sees
    another row's tokens or a padding token.  ``lead`` is how many leading
    positions of every row send a query (``None`` = all); ``q`` holds those
    positions only, in the same order, and the result has ``q``'s shape.

    Per segment the forward is ``softmax(q @ k^T * scale + additive) @ v``
    with the exact numpy expression sequence of the unfused ``Tensor`` chain,
    on views of the packed matrices; the backward composes the chain's
    backward steps in tape order and fills one gradient matrix per operand.
    """
    return SegmentAttention.apply(q, k, v, segments=segments, heads=heads, scale=scale, lead=lead)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target_t
    return (diff * diff).mean()
