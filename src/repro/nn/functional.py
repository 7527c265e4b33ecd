"""Stateless differentiable functions built on :mod:`repro.nn.tensor`.

Besides the loss/softmax helpers this module hosts the fused kernels:
:func:`fused_linear`, and one attention kernel in two layouts —
:func:`segment_attention` over a packed ``(tokens, dim)`` batch cut into
node-count segments (what the layers call) and :func:`fused_attention`, its
one-segment case for operands whose heads are already split.  Each runs its
whole forward as plain numpy expressions — the *same* expressions the
unfused ``Tensor`` op chain evaluates, so outputs are bitwise-identical, with
and without the tape — and, when gradients are on, registers a single tape
node whose backward composes the unfused ops' backward passes exactly.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn import profile as _profile
from repro.nn.tensor import (  # noqa: F401 - concatenate/stack/where re-exported
    Tensor,
    _sum_to_shape,
    concatenate,
    is_grad_enabled,
    stack,
    where,
)

#: A packed batch's runs of rows with equal node count: ``(rows, nodes,
#: additive)`` each, see :func:`segment_attention`.
Segments = Sequence[Tuple[int, int, Optional[np.ndarray]]]

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "huber_loss",
    "masked_softmax",
    "fused_linear",
    "fused_attention",
    "segment_attention",
    "attend_segments",
    "concatenate",
    "stack",
    "where",
    "entropy_from_logits",
]


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    if not is_grad_enabled() or not logits.requires_grad:
        # Same expression sequence as the tape path below, minus the four
        # intermediate Tensor wrappers — bitwise-identical output.
        shifted = logits.data - logits.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        return Tensor._inference(exp / exp.sum(axis=axis, keepdims=True))
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    if not is_grad_enabled() or not logits.requires_grad:
        shifted = logits.data - logits.data.max(axis=axis, keepdims=True)
        return Tensor._inference(
            shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        )
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def fused_linear(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    activation: Optional[str] = None,
) -> Tensor:
    """``activation(x @ weight + bias)`` as one kernel / one tape node.

    Forward runs the identical numpy expressions as the unfused chain
    (``x @ W`` → ``+ b`` → ``.relu()``/``.tanh()``), so outputs are
    bitwise-equal; backward composes the unfused ops' gradients in the
    same order the tape would, so parameter gradients match too.
    ``activation`` is ``None``, ``"relu"`` or ``"tanh"``.
    """
    profiling = _profile.ENABLED
    t0 = time.perf_counter() if profiling else 0.0
    pre = x.data @ weight.data
    if bias is not None:
        pre = pre + bias.data
    if activation is None:
        out_data = pre
    elif activation == "relu":
        out_data = np.maximum(pre, 0.0)
    elif activation == "tanh":
        out_data = np.tanh(pre)
    else:
        raise ValueError(f"unknown fused activation: {activation!r}")
    if profiling:
        _profile.record("fused_linear", out_data.nbytes, time.perf_counter() - t0)
    requires = is_grad_enabled() and (
        x.requires_grad
        or weight.requires_grad
        or (bias is not None and bias.requires_grad)
    )
    if not requires:
        return Tensor._inference(out_data)

    xd, wd = x.data, weight.data

    def backward(grad: np.ndarray) -> None:
        # activation backward (identical to Tensor.relu/tanh closures)
        if activation == "relu":
            g = grad * (pre > 0)
        elif activation == "tanh":
            g = grad * (1.0 - out_data**2)
        else:
            g = grad
        # bias backward (the `+ bias` add node); _accumulate broadcasts down
        if bias is not None and bias.requires_grad:
            bias._accumulate(g)
        # matmul backward, mirroring Tensor.__matmul__'s branches
        if weight.requires_grad:
            if xd.ndim == 1:
                weight._accumulate(np.outer(xd, g))
            else:
                weight._accumulate(np.swapaxes(xd, -1, -2) @ g)
        if x.requires_grad:
            x._accumulate(g @ np.swapaxes(wd, -1, -2))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._node(out_data, parents, backward)


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
    chain's closures in tape order."""
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


def attend_segments(qd, kd, vd, segments, heads, scale, lead=None, saved=None):
    """The numpy forward of :func:`segment_attention`: the merged context,
    one ``(queries, dim)`` matrix.  ``saved``, when given, collects what the
    backward needs per segment."""
    out = np.empty_like(qd)
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
        if saved is not None:
            saved.append((q_start, k_start, rows, m, nodes, views + softmax_parts))
        q_start += rows * m
        k_start += rows * nodes
    return out


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

    Per segment the forward is :func:`fused_attention`'s expression sequence
    on views of the packed matrices, so tape and ``no_grad`` agree bitwise;
    the backward fills one gradient matrix per operand and accumulates each
    once.
    """
    profiling = _profile.ENABLED
    t0 = time.perf_counter() if profiling else 0.0
    requires = is_grad_enabled() and (q.requires_grad or k.requires_grad or v.requires_grad)
    saved: Optional[list] = [] if requires else None
    out_data = attend_segments(q.data, k.data, v.data, segments, heads, scale, lead, saved)
    if profiling:
        _profile.record("fused_attention", out_data.nbytes, time.perf_counter() - t0)
    if not requires:
        return Tensor._inference(out_data)

    def backward(grad: np.ndarray) -> None:
        grads = (np.empty_like(q.data), np.empty_like(k.data), np.empty_like(v.data))
        for q_start, k_start, rows, m, nodes, cache in saved:
            parts = _attend_backward(_heads(grad, q_start, rows, m, heads), *cache, scale)
            _heads(grads[0], q_start, rows, m, heads)[...] = parts[0]
            _heads(grads[1], k_start, rows, nodes, heads)[...] = parts[1]
            _heads(grads[2], k_start, rows, nodes, heads)[...] = parts[2]
        for operand, operand_grad in zip((q, k, v), grads):
            if operand.requires_grad:
                operand._accumulate(operand_grad)

    return Tensor._node(out_data, (q, k, v), backward)


def fused_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    additive: Optional[np.ndarray],
    scale: float,
) -> Tensor:
    """Scaled-dot-product attention (scores → softmax → context) fused.

    The one-segment case of :func:`segment_attention` for operands whose
    heads are already split (``(..., nodes, head_dim)``): computes
    ``softmax(q @ k^T * scale + additive) @ v`` with the exact numpy
    expression sequence of the unfused Tensor chain (transpose, matmul,
    scalar mul, constant add, shifted softmax, matmul), yielding
    bitwise-identical outputs.  ``additive`` is a constant mask term
    (e.g. ``0/-1e9``) broadcastable to the score shape, or ``None``.
    Backward composes the chain's closures exactly, in tape order.
    """
    operands = (q.data, k.data, v.data)
    out_data, softmax_parts = _attend(*operands, additive, scale)
    if not (is_grad_enabled() and (q.requires_grad or k.requires_grad or v.requires_grad)):
        return Tensor._inference(out_data)

    def backward(grad: np.ndarray) -> None:
        parts = _attend_backward(grad, *operands, *softmax_parts, scale)
        for operand, operand_grad in zip((q, k, v), parts):
            if operand.requires_grad:
                operand._accumulate(operand_grad)

    return Tensor._node(out_data, (q, k, v), backward)


def masked_softmax(logits: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax with positions where ``mask`` is False forced to ~0 probability.

    ``mask`` is a constant boolean array broadcastable to ``logits``.
    """
    neg = np.where(np.asarray(mask, dtype=bool), 0.0, -1e9)
    return softmax(logits + Tensor(neg), axis=axis)


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood; ``targets`` are integer class ids."""
    targets = np.asarray(targets, dtype=np.int64)
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), targets]
    return -picked.mean()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy from raw logits."""
    return nll_loss(log_softmax(logits), targets)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target_t
    return (diff * diff).mean()


def huber_loss(pred: Tensor, target: np.ndarray, delta: float = 1.0) -> Tensor:
    """Smooth-L1 loss, quadratic within ``delta`` and linear outside."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target_t
    abs_diff = diff.abs()
    quadratic = 0.5 * diff * diff
    linear = delta * abs_diff - 0.5 * delta * delta
    return where(abs_diff.data <= delta, quadratic, linear).mean()


def entropy_from_logits(logits: Tensor, mask: Optional[np.ndarray] = None, axis: int = -1) -> Tensor:
    """Mean entropy of the (optionally masked) categorical distributions."""
    if mask is not None:
        neg = np.where(np.asarray(mask, dtype=bool), 0.0, -1e9)
        logits = logits + Tensor(neg)
    logp = log_softmax(logits, axis=axis)
    p = logp.exp()
    return -(p * logp).sum(axis=axis).mean()
