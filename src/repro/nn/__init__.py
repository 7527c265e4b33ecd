"""A small numpy neural-network library with hand-written pullbacks.

The offline reproduction environment has no PyTorch, so this package
provides the minimal subset FOSS needs: the layers used by the
QueryFormer-style state network (embeddings, linear layers, layer norm,
multi-head attention), the Adam optimizer, and (de)serialization of
parameters.

Every module has one ``forward`` that returns ``(output, pullback)``:
``pullback(grad)`` adds the parameters' gradients into their ``.grad``
and returns the gradient of the input.  Training calls the pullback;
every other forward (served, simulated and sampled) drops it.  There is no
tensor type and no autograd tape: each pullback composes the backward
bodies of :mod:`repro.nn.functional` in the order the op chain's
reverse-mode walk ran them, and ``tests/reference_tape.py`` keeps that
walk as the tests' oracle.
"""

from repro.nn import functional
from repro.nn.layers import (
    Embedding,
    LayerNorm,
    Linear,
    Module,
    MultiHeadAttention,
    Parameter,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.serialization import load_state_dict, save_state_dict

__all__ = [
    "functional",
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "LayerNorm",
    "MultiHeadAttention",
    "Sequential",
    "ReLU",
    "Tanh",
    "Adam",
    "clip_grad_norm",
    "save_state_dict",
    "load_state_dict",
]
