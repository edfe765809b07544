"""A numpy reverse-mode autodiff engine standing in for PyTorch.

Public surface::

    from repro.autograd import Tensor, Module, Parameter, Linear, AdamW, ...
"""

from . import blocks, functional, init
from .attention import MultiHeadAttention
from .layers import (
    MLP, Activation, Dropout, DropoutPlan, Embedding, LayerNorm, Linear,
    Sequential, active_dropout_plan, dropout_plan,
)
from .module import Module, Parameter
from .optim import SGD, Adam, AdamW, LinearWarmupSchedule, Optimizer, clip_grad_norm
from .recurrent import LSTM, BiLSTM, LSTMCell
from .serialization import load_checkpoint, save_checkpoint
from .tensor import (
    Tensor, concatenate, gather_rows, get_default_dtype, is_grad_enabled,
    no_grad, set_default_dtype, stack, where,
)
from .transformer import FeedForward, TransformerEncoder, TransformerEncoderLayer

__all__ = [
    "Tensor", "concatenate", "gather_rows", "stack", "where", "no_grad", "is_grad_enabled",
    "set_default_dtype", "get_default_dtype",
    "Module", "Parameter",
    "Linear", "Embedding", "LayerNorm", "Dropout", "DropoutPlan",
    "dropout_plan", "active_dropout_plan", "Sequential", "Activation", "MLP",
    "MultiHeadAttention", "TransformerEncoder", "TransformerEncoderLayer", "FeedForward",
    "LSTM", "BiLSTM", "LSTMCell",
    "Optimizer", "SGD", "Adam", "AdamW", "LinearWarmupSchedule", "clip_grad_norm",
    "save_checkpoint", "load_checkpoint",
    "blocks", "functional", "init",
]
