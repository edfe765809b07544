"""Recurrent layers: LSTM and BiLSTM.

The paper uses a BiLSTM in two places: P-tuning's continuous prompt encoder
(Section 3.1) and the DeepMatcher baseline's attribute aggregator.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import init
from .blocks import lstm_node
from .module import Module, Parameter
from .tensor import Tensor, concatenate


class LSTMCell(Module):
    """A single LSTM step: gates computed from [x_t, h_{t-1}].

    Holds the weights an :class:`LSTM` runs; the LSTM itself steps through
    them in one node (:func:`repro.autograd.blocks.lstm`), in this
    method's op order.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Parameter(init.xavier_uniform((input_size, 4 * hidden_size), rng))
        self.w_hh = Parameter(init.xavier_uniform((hidden_size, 4 * hidden_size), rng))
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size:2 * hidden_size] = 1.0  # forget-gate bias trick
        self.bias = Parameter(bias)

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        h_prev, c_prev = state
        gates = x @ self.w_ih + h_prev @ self.w_hh + self.bias
        hs = self.hidden_size
        i = gates[:, 0 * hs:1 * hs].sigmoid()
        f = gates[:, 1 * hs:2 * hs].sigmoid()
        g = gates[:, 2 * hs:3 * hs].tanh()
        o = gates[:, 3 * hs:4 * hs].sigmoid()
        c = f * c_prev + i * g
        h = o * c.tanh()
        return h, c


class LSTM(Module):
    """Unidirectional single-layer LSTM over (batch, seq, input) tensors."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None,
                 reverse: bool = False) -> None:
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size
        self.reverse = reverse

    def forward(self, x: Tensor) -> Tensor:
        """(batch, seq, input) -> (batch, seq, hidden), as one graph node
        (:func:`repro.autograd.blocks.lstm_node`) over ``cell``'s weights."""
        return lstm_node(self, x)


class BiLSTM(Module):
    """Bidirectional LSTM; concatenates forward and backward hidden states."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.forward_lstm = LSTM(input_size, hidden_size, rng=rng, reverse=False)
        self.backward_lstm = LSTM(input_size, hidden_size, rng=rng, reverse=True)
        self.output_size = 2 * hidden_size

    def forward(self, x: Tensor) -> Tensor:
        fwd = self.forward_lstm(x)
        bwd = self.backward_lstm(x)
        return concatenate([fwd, bwd], axis=-1)  # (batch, seq, 2*hidden)
