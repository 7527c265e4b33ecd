"""A small numpy-based neural-network library with reverse-mode autograd.

The offline reproduction environment has no PyTorch, so this package
provides the minimal subset FOSS needs: a :class:`~repro.nn.tensor.Tensor`
with reverse-mode automatic differentiation, the layers used by the
QueryFormer-style state network (embeddings, linear layers, layer norm,
multi-head attention), optimizers, and (de)serialization of parameters.

The API deliberately mirrors PyTorch's so the FOSS code reads like the
paper's original implementation would, with one difference: there is no
grad mode, no context manager that switches the tape off.  Gradients
decide the path.  The tape runs only where a loss is built (AAM training,
the PPO update, the value-model fit); every other forward is inference and
calls a module's ``infer``: array code over its parameters' ``.data`` that
composes the same array functions as its ``forward`` and builds no
tensor.
"""

from repro.nn.tensor import Tensor, tensor, zeros, ones, randn
from repro.nn import functional
from repro.nn.layers import (
    Dropout,
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
from repro.nn.optim import SGD, Adam, clip_grad_norm
from repro.nn.serialization import load_state_dict, save_state_dict

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "randn",
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
    "Dropout",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "save_state_dict",
    "load_state_dict",
]
