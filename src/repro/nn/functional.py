"""Array functions and their backward bodies.

The module forwards of :mod:`repro.nn` are composed of these (and of
``layers.normalize``), and their pullbacks of the backward bodies:
:func:`linear` and :func:`linear_backward` for the dense layers,
:func:`attend_segments` and :func:`attend_segments_backward` for attention
over a packed ``(tokens, dim)`` batch cut into node-count segments, and
:func:`log_softmax` with its pullback.  A forward computes each piece its
backward reads once and hands it over (``attend_segments`` returns its
softmax pieces beside its output), so inference, which drops the
pullback, computes nothing it does not use.

Each backward body is the composition of the unfused op chain's backward
steps in the order the chain's reverse-mode walk ran them, so values and
gradients are bitwise the chain's.  ``tests/reference_tape.py`` keeps that
chain, as an autograd tape, for the tests to hold these to.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

#: A packed batch's runs of rows with equal node count: ``(rows, nodes,
#: additive)`` each, see :func:`attend_segments`.
Segments = Sequence[Tuple[int, int, Optional[np.ndarray]]]

__all__ = [
    "Segments",
    "linear",
    "linear_backward",
    "log_softmax",
    "mse_loss",
    "attend_segments",
    "attend_segments_backward",
]


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


def linear(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    activation: Optional[str] = None,
) -> np.ndarray:
    """``activation(x @ weight + bias)``; ``activation`` is ``None``,
    ``"relu"`` or ``"tanh"``."""
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


def linear_backward(grad, x, weight, out, activation):
    """Gradients of ``out = linear(x, weight, bias, activation)``: ``(x,
    weight, bias)``, the bias's still shaped like ``out`` (its owner sums
    it down).  The activation's step first (a ReLU output is positive
    exactly where its input is), then the matmul's, then the ``+ bias``
    add's, which takes ``grad`` as it is."""
    if activation == "relu":
        grad = grad * (out > 0)
    elif activation == "tanh":
        grad = grad * (1.0 - out**2)
    grad_weight = np.outer(x, grad) if x.ndim == 1 else np.swapaxes(x, -1, -2) @ grad
    return grad @ np.swapaxes(weight, -1, -2), grad_weight, grad


def log_softmax(logits: np.ndarray):
    """Numerically stable log-softmax over the last axis, and its pullback."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    sm = e.sum(axis=-1, keepdims=True)
    out = shifted - np.log(sm)

    def pullback(grad):
        # out = shifted - log(sm): ``shifted`` takes ``grad`` first, then
        # its second arrival through log, sum and exp.
        grad_sm = _sum_to_shape(-grad, sm.shape) / sm
        return grad + np.broadcast_to(grad_sm, e.shape) * e

    return out, pullback


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean squared error and its gradient for ``pred``, from a seed of 1:
    the tape's steps for ``((pred - target) ** 2).mean()``, where the
    square is ``diff * diff`` and so reaches ``diff`` twice."""
    diff = pred - target
    scale = 1.0 / diff.size
    grad = np.broadcast_to(scale, diff.shape)
    return (diff * diff).sum() * scale, grad * diff + grad * diff


def _heads(data: np.ndarray, start: int, rows: int, nodes: int, heads: int) -> np.ndarray:
    """``rows * nodes`` tokens of a packed ``(tokens, dim)`` matrix from
    ``start`` on, as a ``(rows, heads, nodes, head_dim)`` view."""
    return data[start : start + rows * nodes].reshape(rows, nodes, heads, -1).swapaxes(1, 2)


def _attend(qd, kd, vd, additive, scale):
    """``softmax(q @ k^T * scale + additive) @ v`` on head-split arrays, with
    the softmax pieces the backward needs: ``e`` and its row sums ``sm``
    (the backward divides them again rather than keeping ``e / sm``)."""
    scores = (qd @ np.swapaxes(kd, -2, -1)) * scale
    if additive is not None:
        scores = scores + additive
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    sm = e.sum(axis=-1, keepdims=True)
    return (e / sm) @ vd, (e, sm)


def _attend_backward(grad, qd, kd, vd, e, sm, scale):
    """Gradients of :func:`_attend` for q, k, v, composing the unfused
    chain's backward steps in tape order."""
    attn = e / sm
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


def attend_segments(qd, kd, vd, segments: Segments, heads: int, scale: float, lead: Optional[int]):
    """Multi-head attention over a packed batch: ``(out, saved)``.

    ``kd`` and ``vd`` are ``(tokens, dim)``: the rows of a batch laid end
    to end, each row contributing its own number of nodes.  ``segments``
    cuts that into runs of rows with equal node count, ``(rows, nodes,
    additive)`` each: such a run is a contiguous token slice, viewed as
    ``(rows, heads, nodes, head_dim)`` and attended with its own constant
    mask term (broadcastable to ``(rows, 1, nodes, nodes)``, or ``None``)
    — no row ever sees another row's tokens.  ``lead`` is how many leading
    positions of every row send a query (``None`` = all); ``qd`` holds
    those positions only, in the same order, and ``out`` has its shape.
    ``saved`` holds, per segment, its token offsets and sizes with the
    head-split views and softmax pieces :func:`attend_segments_backward`
    reads.
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


def attend_segments_backward(grad, qd, kd, vd, saved, heads: int, scale: float):
    """Gradients of :func:`attend_segments` for ``qd``, ``kd`` and ``vd``,
    one matrix each, filled segment by segment."""
    grads = (np.empty_like(qd), np.empty_like(kd), np.empty_like(vd))
    for q_start, k_start, rows, m, nodes, cache in saved:
        parts = _attend_backward(_heads(grad, q_start, rows, m, heads), *cache, scale)
        _heads(grads[0], q_start, rows, m, heads)[...] = parts[0]
        _heads(grads[1], k_start, rows, nodes, heads)[...] = parts[1]
        _heads(grads[2], k_start, rows, nodes, heads)[...] = parts[2]
    return grads
