"""Parameter-efficient tuning: soft prompts and bottleneck adapters.

Full prompt-tuning (the PR-1..2 training path) updates every backbone
weight, so every task/tenant costs a complete MiniLM copy on disk and in
serving memory. APrompt4EM and AdapterEM show that in low-resource GEM a
per-task delta of ~1% of model size matches full tuning F1. This module
provides the two delta families over one frozen backbone:

* :class:`SoftPrompt` / :class:`SoftPromptModel` -- the continuous
  template's prompt slots are fed from a directly-trainable ``(P, D)``
  embedding matrix instead of the frozen :class:`PromptEncoder`'s
  LSTM+MLP reparameterization. The matrix conforms to the
  ``prompt_encoder()`` protocol (callable returning a Tensor), so both
  the recorded training path and the no-grad fastpath consume it with
  zero kernel changes.
* :class:`Adapter` / :func:`install_adapters` -- bottleneck residual
  blocks (``x + up(gelu(down(x)))``, ``up`` zero-initialized so insertion
  is exact identity) hung off each transformer layer as ``adapter_attn``
  and ``adapter_ffn``. The encoder-layer kernel
  (:func:`repro.autograd.blocks.encoder_layer`), which training and the
  fastpath both run, applies them via ``getattr(layer, "adapter_*",
  None)`` -- absent means the exact pre-PEFT code path, byte for byte.

:func:`apply_peft` freezes the backbone in place (see
:meth:`~repro.autograd.module.Parameter.freeze_`: gradients still flow
*through* frozen ops to the deltas; optimizers simply skip the frozen
slots), installs the requested delta family, and the trainable set --
``model.named_trainable_parameters()`` -- *is* the tenant delta that
:class:`repro.serve.delta.DeltaBundle` ships.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..autograd import functional as F
from ..autograd import no_grad
from ..autograd.layers import Linear
from ..autograd.module import Module, Parameter
from ..autograd.tensor import Tensor, get_default_dtype
from .prompt_model import PromptModel

#: delta families understood by ``apply_peft`` / ``repro tune --peft``
PEFT_KINDS = ("soft_prompt", "adapter")

#: attribute slots probed by the encoder-layer kernel
ADAPTER_SLOTS = ("adapter_attn", "adapter_ffn")


class SoftPrompt(Module):
    """A directly-trainable prompt matrix behind the prompt-encoder protocol.

    ``forward()`` returns the ``(P, D)`` :class:`Parameter` itself (a
    Parameter *is* a Tensor), exactly what
    ``PromptModel.mask_logits_encoded`` gathers from and what the fastpath
    reads via ``model.prompt_encoder().data``.
    """

    def __init__(self, num_tokens: int, d_model: int,
                 rng: Optional[np.random.Generator] = None,
                 init: Optional[np.ndarray] = None) -> None:
        super().__init__()
        if num_tokens <= 0:
            raise ValueError("soft prompt needs at least one prompt token")
        self.num_tokens = num_tokens
        self.d_model = d_model
        if init is not None:
            init = np.asarray(init, dtype=get_default_dtype())
            if init.shape != (num_tokens, d_model):
                raise ValueError(
                    f"soft-prompt init shape {init.shape} != "
                    f"({num_tokens}, {d_model})")
            table = init.copy()
        else:
            rng = rng if rng is not None else np.random.default_rng(0)
            table = (rng.standard_normal((num_tokens, d_model)) * 0.02
                     ).astype(get_default_dtype())
        self.embeddings = Parameter(table, name="soft_prompt")

    def forward(self) -> Tensor:
        return self.embeddings


class Adapter(Module):
    """Bottleneck residual block: ``x + up(gelu(down(x)))``.

    ``up`` is zero-initialized, so a freshly installed adapter is an exact
    identity -- predictions (training and fastpath) are unchanged until
    tuning moves the delta.
    """

    def __init__(self, d_model: int, bottleneck: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if bottleneck <= 0:
            raise ValueError("adapter bottleneck must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.d_model = d_model
        self.bottleneck = bottleneck
        self.down = Linear(d_model, bottleneck, rng=rng)
        self.up = Linear(bottleneck, d_model, rng=rng)
        self.up.weight.data[...] = 0.0
        self.up.bias.data[...] = 0.0

    def forward(self, x: Tensor) -> Tensor:
        return x + self.up(F.gelu(self.down(x)))


def install_adapters(lm, bottleneck: int = 8, seed: int = 0) -> List[Adapter]:
    """Hang a fresh ``adapter_attn``/``adapter_ffn`` pair off each layer.

    Returns the adapters in probe order (attn, ffn per layer). Raises if
    any layer already carries adapters -- stacking deltas is a bug, not a
    feature (tenant binds must remove before installing).
    """
    if has_adapters(lm):
        raise ValueError("adapters already installed; remove_adapters first")
    d_model = lm.config.d_model
    installed: List[Adapter] = []
    for i, layer in enumerate(lm.encoder.layers):
        for j, slot in enumerate(ADAPTER_SLOTS):
            rng = np.random.default_rng((seed, i, j))
            adapter = Adapter(d_model, bottleneck, rng=rng)
            setattr(layer, slot, adapter)
            installed.append(adapter)
    return installed


def attach_adapters(lm, adapters: Iterable[Adapter]) -> None:
    """Re-attach pre-built adapters (tenant bind path), in probe order."""
    if has_adapters(lm):
        raise ValueError("adapters already installed; remove_adapters first")
    stack = list(adapters)
    expected = len(lm.encoder.layers) * len(ADAPTER_SLOTS)
    if len(stack) != expected:
        raise ValueError(
            f"expected {expected} adapters for this backbone, got {len(stack)}")
    it = iter(stack)
    for layer in lm.encoder.layers:
        for slot in ADAPTER_SLOTS:
            setattr(layer, slot, next(it))


def remove_adapters(lm) -> bool:
    """Detach every adapter; the backbone reverts to the pre-PEFT graph.

    ``Module.__setattr__`` registers child modules but never unregisters,
    so removal must scrub ``_modules`` explicitly or the detached adapter
    would keep showing up in ``named_parameters()``/``state_dict()``.
    """
    removed = False
    for layer in lm.encoder.layers:
        for slot in ADAPTER_SLOTS:
            if slot in layer._modules:
                del layer._modules[slot]
                removed = True
            if slot in layer.__dict__:
                object.__delattr__(layer, slot)
    return removed


def has_adapters(lm) -> bool:
    return any(
        getattr(layer, slot, None) is not None
        for layer in lm.encoder.layers for slot in ADAPTER_SLOTS)


def iter_adapters(lm) -> List[Adapter]:
    """Installed adapters in probe order (attn, ffn per layer)."""
    found: List[Adapter] = []
    for layer in lm.encoder.layers:
        for slot in ADAPTER_SLOTS:
            adapter = getattr(layer, slot, None)
            if adapter is not None:
                found.append(adapter)
    return found


def apply_peft(model: PromptModel, kind: str, bottleneck: int = 8,
               seed: int = 0) -> PromptModel:
    """Freeze ``model`` in place and install the trainable delta family.

    Both kinds replace the (frozen) :class:`PromptEncoder` with a
    :class:`SoftPrompt` warm-started from the encoder's current output, so
    the step-0 predictions equal the base model's and the prompt matrix is
    part of the delta (the LSTM/MLP reparameterization only helps
    *optimization from scratch*; a warm-started direct matrix is the
    standard deployment form). ``adapter`` additionally installs
    zero-initialized bottleneck adapters on every transformer layer.
    """
    if kind not in PEFT_KINDS:
        raise ValueError(f"unknown peft kind {kind!r}; expected {PEFT_KINDS}")
    if model.template.num_prompt_tokens <= 0 and kind == "soft_prompt":
        raise ValueError(
            "soft-prompt tuning needs a continuous template "
            "(this model has no prompt slots)")
    model.freeze()
    if model.template.num_prompt_tokens > 0:
        init = None
        if model.prompt_encoder is not None:
            with no_grad():
                init = np.array(model.prompt_encoder().data, copy=True)
        model.prompt_encoder = SoftPrompt(
            model.template.num_prompt_tokens, model.lm.config.d_model,
            rng=np.random.default_rng(seed), init=init)
        model.prompt_encoder.unfreeze()
    if kind == "adapter":
        install_adapters(model.lm, bottleneck=bottleneck, seed=seed)
    return model


class SoftPromptModel(PromptModel):
    """A :class:`PromptModel` born frozen with a trainable soft prompt."""

    def __init__(self, lm, tokenizer, template, verbalizer,
                 summarizer=None, seed: int = 0) -> None:
        super().__init__(lm, tokenizer, template, verbalizer,
                         summarizer=summarizer, seed=seed)
        apply_peft(self, "soft_prompt", seed=seed)


def peft_kind(model: Module) -> Optional[str]:
    """Infer which delta family (if any) a model carries."""
    lm = getattr(model, "lm", model)
    if has_adapters(lm):
        return "adapter"
    if isinstance(getattr(model, "prompt_encoder", None), SoftPrompt):
        return "soft_prompt"
    return None


def peft_state(model: Module) -> Dict[str, np.ndarray]:
    """The tenant delta: every trainable parameter, by qualified name."""
    return {name: param.data.copy()
            for name, param in model.named_trainable_parameters()}


def load_peft_state(model: Module, state: Dict[str, np.ndarray]) -> None:
    """Load a delta back into a model with the same trainable structure."""
    own = dict(model.named_trainable_parameters())
    missing = set(own) - set(state)
    unexpected = set(state) - set(own)
    if missing or unexpected:
        raise KeyError(
            f"delta state mismatch; missing={sorted(missing)} "
            f"unexpected={sorted(unexpected)}")
    for name, values in state.items():
        param = own[name]
        if param.data.shape != values.shape:
            raise ValueError(
                f"shape mismatch for {name}: have {param.data.shape}, "
                f"got {values.shape}")
        param.data = np.asarray(values, dtype=get_default_dtype()).copy()


def trainable_fraction(model: Module) -> float:
    """Trainable / total parameter count -- the <= 2% delta-size contract."""
    total = model.num_parameters()
    if total == 0:
        return 0.0
    return model.num_trainable_parameters() / total
