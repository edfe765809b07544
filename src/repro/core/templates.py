"""GEM-specific prompt templates (paper Section 3.1).

Two hard-encoding templates:

* ``T1(x) = serialize(e) [SEP] serialize(e') [SEP] they are [MASK]``
* ``T2(x) = serialize(e) is [MASK] to serialize(e')``

and their *continuous* counterparts, which follow P-tuning: trainable prompt
token embeddings are inserted around the same layout and re-parameterized
through a BiLSTM + MLP so the model can search for prompts beyond what the
vocabulary can express.

A template renders a serialized pair into a :class:`TemplateInstance`: token
ids where continuous prompt slots hold :data:`PROMPT_PLACEHOLDER`, plus the
position of the [MASK] token whose prediction the verbalizer scores.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..autograd import BiLSTM, Linear, Module, Parameter, Sequential, Tensor
from ..autograd import functional as F
from ..text import Tokenizer
from ..text.tokenizer import truncate_longest_first

#: Sentinel id marking a continuous-prompt slot inside a rendered instance.
PROMPT_PLACEHOLDER = -1

TEMPLATE_NAMES = ("t1", "t2")


@dataclass
class TemplateInstance:
    """One rendered input: ids (with placeholder slots) and the mask index."""

    ids: List[int]
    mask_position: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask_position < len(self.ids):
            raise ValueError("mask_position out of range")


class Template(ABC):
    """Base template: splits a fixed token budget between the two entities."""

    #: number of trainable prompt tokens (0 for hard templates)
    num_prompt_tokens: int = 0

    def __init__(self, tokenizer: Tokenizer, max_len: int = 128) -> None:
        self.tokenizer = tokenizer
        self.max_len = max_len

    def _entity_ids(self, left: str, right: str, budget: int) -> tuple:
        """Both sides' ids, truncated longest-first to ``budget``."""
        a = self.tokenizer.token_ids(left)
        b = self.tokenizer.token_ids(right)
        keep_a, keep_b = truncate_longest_first(len(a), len(b), budget)
        return a[:keep_a], b[:keep_b]

    @abstractmethod
    def render(self, left: str, right: str) -> TemplateInstance:
        """Render a serialized pair into ids + mask position."""


class HardTemplateT1(Template):
    """``[CLS] e [SEP] e' [SEP] they are [MASK] [SEP]``"""

    def render(self, left: str, right: str) -> TemplateInstance:
        vocab = self.tokenizer.vocab
        suffix = self.tokenizer.token_ids("they are")
        overhead = 4 + len(suffix) + 1  # CLS + 3 SEP + suffix + MASK
        a, b = self._entity_ids(left, right, self.max_len - overhead)
        ids = [vocab.cls_id, *a, vocab.sep_id, *b, vocab.sep_id,
               *suffix, vocab.mask_id, vocab.sep_id]
        return TemplateInstance(ids=ids, mask_position=len(ids) - 2)


class HardTemplateT2(Template):
    """``[CLS] e is [MASK] to e' [SEP]``"""

    def render(self, left: str, right: str) -> TemplateInstance:
        vocab = self.tokenizer.vocab
        is_ids = self.tokenizer.token_ids("is")
        to_ids = self.tokenizer.token_ids("to")
        overhead = 2 + len(is_ids) + len(to_ids) + 1
        a, b = self._entity_ids(left, right, self.max_len - overhead)
        ids = [vocab.cls_id, *a, *is_ids, vocab.mask_id, *to_ids, *b, vocab.sep_id]
        mask_position = 1 + len(a) + len(is_ids)
        return TemplateInstance(ids=ids, mask_position=mask_position)


class PromptEncoder(Module):
    """P-tuning re-parameterization: embeddings -> BiLSTM -> MLP.

    The raw prompt embeddings are free parameters; the BiLSTM lets prompt
    tokens interact, and the MLP projects back to model width.
    """

    def __init__(self, num_tokens: int, d_model: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if num_tokens <= 0:
            raise ValueError("need at least one prompt token")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_tokens = num_tokens
        self.d_model = d_model
        self.embeddings = Parameter(rng.standard_normal((num_tokens, d_model)) * 0.1)
        hidden = max(d_model // 2, 4)
        self.lstm = BiLSTM(d_model, hidden, rng=rng)
        self.mlp = Sequential(
            Linear(2 * hidden, d_model, rng=rng),
        )

    def forward(self) -> Tensor:
        """Return the (num_tokens, d_model) continuous prompt matrix."""
        seq = self.embeddings.reshape(1, self.num_tokens, self.d_model)
        encoded = self.lstm(seq)
        out = self.mlp(F.relu(encoded))
        return out.reshape(self.num_tokens, self.d_model)


class ContinuousTemplate(Template):
    """A hard template augmented with trainable prompt slots.

    ``layout='t1'`` inserts prompt blocks before each entity and before the
    mask; ``layout='t2'`` inserts them around the [MASK] connective. The
    actual vectors come from a :class:`PromptEncoder` owned by the prompt
    model, not by the template (templates stay stateless renderers).
    """

    def __init__(self, tokenizer: Tokenizer, layout: str = "t1",
                 max_len: int = 128, tokens_per_slot: int = 2) -> None:
        super().__init__(tokenizer, max_len=max_len)
        if layout not in TEMPLATE_NAMES:
            raise ValueError(f"layout must be one of {TEMPLATE_NAMES}")
        if tokens_per_slot <= 0:
            raise ValueError("tokens_per_slot must be positive")
        self.layout = layout
        self.tokens_per_slot = tokens_per_slot
        self.num_prompt_tokens = 3 * tokens_per_slot

    def _slot(self, slot_index: int) -> List[int]:
        return [PROMPT_PLACEHOLDER] * self.tokens_per_slot

    def render(self, left: str, right: str) -> TemplateInstance:
        vocab = self.tokenizer.vocab
        k = self.tokens_per_slot
        if self.layout == "t1":
            suffix = self.tokenizer.token_ids("they are")
            overhead = 4 + len(suffix) + 1 + 3 * k
            a, b = self._entity_ids(left, right, self.max_len - overhead)
            ids = [vocab.cls_id, *self._slot(0), *a, vocab.sep_id,
                   *self._slot(1), *b, vocab.sep_id,
                   *self._slot(2), *suffix, vocab.mask_id, vocab.sep_id]
            return TemplateInstance(ids=ids, mask_position=len(ids) - 2)
        is_ids = self.tokenizer.token_ids("is")
        to_ids = self.tokenizer.token_ids("to")
        overhead = 2 + len(is_ids) + len(to_ids) + 1 + 3 * k
        a, b = self._entity_ids(left, right, self.max_len - overhead)
        ids = [vocab.cls_id, *self._slot(0), *a, *is_ids, *self._slot(1),
               vocab.mask_id, *to_ids, *self._slot(2), *b, vocab.sep_id]
        mask_position = 1 + k + len(a) + len(is_ids) + k
        return TemplateInstance(ids=ids, mask_position=mask_position)


def make_template(name: str, tokenizer: Tokenizer, continuous: bool = True,
                  max_len: int = 128, tokens_per_slot: int = 2) -> Template:
    """Factory covering the four template variants of Figure 4."""
    if name not in TEMPLATE_NAMES:
        raise ValueError(f"unknown template {name!r}; expected one of {TEMPLATE_NAMES}")
    if continuous:
        return ContinuousTemplate(tokenizer, layout=name, max_len=max_len,
                                  tokens_per_slot=tokens_per_slot)
    cls = HardTemplateT1 if name == "t1" else HardTemplateT2
    return cls(tokenizer, max_len=max_len)
