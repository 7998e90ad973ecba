"""A small reverse-mode automatic-differentiation engine on top of numpy.

This package is the deep-learning substrate for the repro library.  The
paper implements DeepMVI with an off-the-shelf framework; this environment
has no deep-learning framework installed, so we provide the minimal set of
pieces the paper's models need:

* :class:`repro.nn.tensor.Tensor` — an array with a gradient tape.
* :mod:`repro.nn.functional` — differentiable operations.
* :mod:`repro.nn.layers` — ``Module``, ``Linear``, ``Embedding``, ... .
* :mod:`repro.nn.attention` — multi-head attention used by the temporal
  transformer and the vanilla transformer baseline.
* :mod:`repro.nn.rnn` — a GRU cell used by the BRITS and MRNN baselines.
* :mod:`repro.nn.optim` — SGD and Adam.
* :mod:`repro.nn.losses` — MSE and the KL divergence of the GP-VAE.
"""

from repro.nn.tensor import Tensor, as_tensor, no_grad
from repro.nn import functional
from repro.nn.layers import (
    Module,
    Parameter,
    Linear,
    Embedding,
    Sequential,
    ReLU,
    Tanh,
    Sigmoid,
    Dropout,
    LayerNorm,
)
from repro.nn.attention import MultiHeadAttention
from repro.nn.rnn import GRUCell
from repro.nn.optim import SGD, Adam
from repro.nn import losses
from repro.nn import init

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "functional",
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "Sequential",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Dropout",
    "LayerNorm",
    "MultiHeadAttention",
    "GRUCell",
    "SGD",
    "Adam",
    "losses",
    "init",
]
