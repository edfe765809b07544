"""Module / Parameter abstractions mirroring the torch.nn.Module contract.

Modules own named :class:`Parameter` leaves and child modules; they provide
recursive parameter iteration, train/eval mode switching (which drives
dropout, and therefore MC-Dropout), and state-dict (de)serialization.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .tensor import Tensor


class Parameter(Tensor):
    """A tensor that is always a leaf requiring gradients.

    ``trainable`` is the parameter-efficient-tuning switch: a frozen
    parameter (``trainable=False``) still participates in the forward and
    backward passes (upstream gradients must flow *through* a frozen
    backbone to reach soft prompts / adapters), but optimizers exclude it
    from their flat buffer entirely -- no optimizer state, no fused
    update, its data never moves.
    """

    def __init__(self, data, name: str = "", trainable: bool = True) -> None:
        super().__init__(data, requires_grad=trainable, name=name)
        self.trainable = trainable

    def freeze_(self) -> "Parameter":
        """Freeze in place: no optimizer state, no gradient accumulation.

        Gradients still flow *through* ops that consume this parameter
        whenever another input is trainable (graph recording keys off any
        grad-requiring input), so prompts/adapters downstream of a frozen
        backbone train normally -- only the dead-end accumulation into
        this leaf is skipped.
        """
        self.trainable = False
        self.requires_grad = False
        self.grad = None
        return self

    def unfreeze_(self) -> "Parameter":
        self.trainable = True
        self.requires_grad = True
        return self


class Module:
    """Base class for neural-network building blocks."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # ------------------------------------------------------------------
    # Attribute plumbing: assigning a Parameter or Module registers it.
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> Iterator[Parameter]:
        """:meth:`named_parameters` without the names: each module's own
        parameters, modules in :meth:`modules` order."""
        for module in self.modules():
            yield from module._parameters.values()

    def modules(self) -> Iterator["Module"]:
        """This module and every descendant, depth first, parents before
        children, children in registration order; one stack, no
        recursion."""
        stack = [self]
        while stack:
            module = stack.pop()
            yield module
            stack.extend(reversed(module._modules.values()))

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def named_trainable_parameters(self, prefix: str = ""
                                   ) -> Iterator[Tuple[str, Parameter]]:
        for name, param in self.named_parameters(prefix=prefix):
            if getattr(param, "trainable", True):
                yield (name, param)

    def trainable_parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_trainable_parameters():
            yield param

    def num_trainable_parameters(self) -> int:
        return sum(p.size for p in self.trainable_parameters())

    def freeze(self) -> "Module":
        """Freeze every parameter (recursively); see :meth:`Parameter.freeze_`."""
        for param in self.parameters():
            param.freeze_()
        return self

    def unfreeze(self) -> "Module":
        """Mark every parameter (recursively) trainable again."""
        for param in self.parameters():
            param.unfreeze_()
        return self

    # ------------------------------------------------------------------
    # Modes
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        # a bool never registers anything: write each module's flag
        # straight into its __dict__, past __setattr__'s type checks
        for module in self.modules():
            module.__dict__["training"] = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch; missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, values in state.items():
            if name not in own:
                continue
            param = own[name]
            if param.data.shape != values.shape:
                raise ValueError(
                    f"shape mismatch for {name}: have {param.data.shape}, got {values.shape}"
                )
            from .tensor import get_default_dtype

            param.data = np.asarray(values, dtype=get_default_dtype()).copy()

    def clone(self) -> "Module":
        """Deep-copy this module's parameters into a fresh instance graph."""
        import copy

        twin = copy.deepcopy(self)
        for param in twin.parameters():
            param.grad = None
        return twin

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
