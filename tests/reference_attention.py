"""Test-only oracle: head-split fused attention.

:func:`fused_attention` is :func:`repro.nn.functional.attend_segments`'s
one-segment case for operands whose heads are already split, as one tape
node of ``tests/reference_tape.py`` over the same ``_attend`` /
``_attend_backward`` expressions.  ``tests/test_core_aam.py`` holds the
segment function equal to it segment by segment, and
``tests/test_nn_fused.py`` holds it to the unfused ``Tensor`` chain and to
finite differences.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.functional import _attend, _attend_backward
from reference_tape import Function, Tensor


class FusedAttention(Function):
    """Head-split attention; see :func:`fused_attention`."""

    __slots__ = ("operands", "softmax_parts", "scale")

    def forward(ctx, qd, kd, vd, additive, scale):
        ctx.operands, ctx.scale = (qd, kd, vd), scale
        out, ctx.softmax_parts = _attend(qd, kd, vd, additive, scale)
        return out

    def backward(ctx, grad):
        return _attend_backward(grad, *ctx.operands, *ctx.softmax_parts, ctx.scale)


def fused_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    additive: Optional[np.ndarray],
    scale: float,
) -> Tensor:
    """Scaled-dot-product attention (scores → softmax → context) fused.

    Operands are ``(..., nodes, head_dim)``: computes
    ``softmax(q @ k^T * scale + additive) @ v`` with the exact numpy
    expression sequence of the unfused Tensor chain (transpose, matmul,
    scalar mul, constant add, shifted softmax, matmul), yielding
    bitwise-identical outputs.  ``additive`` is a constant mask term
    (e.g. ``0/-1e9``) broadcastable to the score shape, or ``None``.
    Backward composes the chain's backward steps exactly, in tape order.
    """
    return FusedAttention.apply(q, k, v, additive=additive, scale=scale)
