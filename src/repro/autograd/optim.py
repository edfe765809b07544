"""Optimizers: SGD, Adam, AdamW (the paper's optimizer), plus grad clipping.

Flat-buffer design (the training fastpath's first pillar): every optimizer
copies its parameters into **one contiguous numpy buffer** at construction
and re-points each ``Parameter.data`` at a view of it. A step is then a
handful of fused elementwise operations over a single large array instead of
a Python loop over dozens of small ones -- the per-parameter interpreter
overhead that dominated the seed implementation on models with many small
tensors disappears, while the update math stays elementwise-identical.

Semantics preserved from the looped seed implementation:

* parameters whose ``grad`` is ``None`` at step time are skipped -- their
  data *and* their optimizer state (momentum / moments) stay untouched
  (a cached boolean element mask confines the fused update);
* ``Adam._step`` (and the bias correction built on it) advances once per
  ``step()`` call regardless of which parameters received gradients;
* code that assigns a fresh array to ``param.data`` (``load_state_dict``,
  a second optimizer adopting the same parameters) is detected on the next
  ``step`` and the views are re-adopted, so the buffer never goes stale;
* parameters frozen with ``Parameter.trainable = False`` are filtered out
  at construction: the flat buffer, optimizer state, and every fused
  update cover trainable slots only (the parameter-efficient-tuning
  fastpath -- tuning a KB-scale delta allocates KB-scale moments).

The flat layout also makes optimizer state trivially serializable:
``state_dict`` / ``load_state_dict`` round-trip the moment buffers as plain
arrays (see :func:`repro.autograd.serialization.save_checkpoint`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .module import Parameter


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Clip gradients in place to a global L2 norm; returns the pre-clip norm.

    Vectorized: the norm is one dot product over the concatenated gradient
    vector (accumulated in float64) instead of a Python ``sum`` of
    per-parameter scalars. Parameters whose ``grad`` is ``None`` are
    skipped, exactly as the looped implementation skipped them.
    """
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    if len(grads) == 1:
        flat = grads[0].reshape(-1)
    else:
        flat = np.concatenate([g.reshape(-1) for g in grads])
    flat64 = flat.astype(np.float64, copy=False)
    total = float(np.sqrt(np.dot(flat64, flat64)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


class Optimizer:
    """Base optimizer over a fixed parameter list, viewed as one flat buffer."""

    def __init__(self, parameters: Iterable[Parameter]) -> None:
        supplied = list(parameters)
        if not supplied:
            raise ValueError("optimizer received no parameters")
        # PEFT contract: frozen parameters never enter the flat buffer --
        # no optimizer state is allocated for them and the fused update
        # cannot touch them.  With everything trainable (the default) the
        # filtered list is the supplied list and behavior is bit-identical
        # to the pre-flag optimizer.
        self.parameters: List[Parameter] = [
            p for p in supplied if getattr(p, "trainable", True)]
        if not self.parameters:
            raise ValueError(
                "optimizer received no trainable parameters "
                f"({len(supplied)} supplied, all frozen)")
        self._shapes = [p.data.shape for p in self.parameters]
        sizes = [int(p.data.size) for p in self.parameters]
        self._offsets = [0]
        for size in sizes:
            self._offsets.append(self._offsets[-1] + size)
        dtype = np.result_type(*(p.data.dtype for p in self.parameters))
        self._flat = np.empty(self._offsets[-1], dtype=dtype)
        self._grad = np.zeros(self._offsets[-1], dtype=dtype)
        self._views: List[np.ndarray] = [None] * len(self.parameters)
        self._mask_cache: Dict[Tuple[bool, ...], np.ndarray] = {}
        for i, p in enumerate(self.parameters):
            self._adopt(i, p)

    # ------------------------------------------------------------------
    # Flat-buffer bookkeeping
    # ------------------------------------------------------------------
    def _segment(self, i: int) -> slice:
        return slice(self._offsets[i], self._offsets[i + 1])

    def _adopt(self, i: int, param: Parameter) -> None:
        """Copy ``param.data`` into its flat segment and view it from there."""
        seg = self._flat[self._segment(i)]
        np.copyto(seg, param.data.reshape(-1), casting="same_kind")
        view = seg.reshape(self._shapes[i])
        self._views[i] = view
        param.data = view

    def _sync_views(self) -> None:
        """Re-adopt any parameter whose ``data`` was reassigned since the
        last step (e.g. by ``Module.load_state_dict``)."""
        for i, p in enumerate(self.parameters):
            if p.data is not self._views[i]:
                self._adopt(i, p)

    def _present_mask(self, present: Tuple[bool, ...]
                      ) -> Optional[np.ndarray]:
        """Element mask for a presence tuple (``None`` = all present)."""
        if all(present):
            return None
        mask = self._mask_cache.get(present)
        if mask is None:
            mask = np.zeros(len(self._grad), dtype=bool)
            for i, has_grad in enumerate(present):
                if has_grad:
                    mask[self._segment(i)] = True
            self._mask_cache[present] = mask
        return mask

    def _gather(self) -> Optional[np.ndarray]:
        """Fill the flat grad buffer; returns the element mask of parameters
        that have a gradient, or ``None`` when every parameter does.

        Absent gradients leave zeroed segments."""
        present = tuple(p.grad is not None for p in self.parameters)
        for i, p in enumerate(self.parameters):
            seg = self._grad[self._segment(i)]
            if p.grad is None:
                seg[:] = 0.0
            else:
                np.copyto(seg, p.grad.reshape(-1), casting="same_kind")
        return self._present_mask(present)

    def _clip_flat(self, max_norm: float) -> float:
        """Global-norm clip over the gathered flat gradient buffer.

        Absent gradients occupy zeroed segments, so they contribute nothing
        to the norm -- the same total the standalone :func:`clip_grad_norm`
        computes by skipping them.
        """
        grad64 = self._grad.astype(np.float64, copy=False)
        total = float(np.sqrt(np.dot(grad64, grad64)))
        if total > max_norm and total > 0:
            self._grad *= max_norm / total
        return total

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for p in self.parameters:
            p.grad = None

    def step(self, grad_clip: Optional[float] = None) -> Optional[float]:
        """Apply one fused update over the flat buffer.

        ``grad_clip`` folds global-norm gradient clipping into the step
        (one norm over the already-gathered flat gradient instead of a
        separate pass over the parameter list); the pre-clip norm is
        returned when clipping was requested. Note the per-parameter
        ``grad`` arrays are consumed as-is and left unscaled -- the clip
        applies to the flat copy the update actually reads.
        """
        self._sync_views()
        mask = self._gather()
        norm = None
        if grad_clip is not None:
            norm = self._clip_flat(grad_clip)
        self._update(mask)
        return norm

    def _update(self, mask: Optional[np.ndarray]) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat optimizer state as plain arrays/scalars (npz-serializable)."""
        self._sync_views()
        state: Dict[str, np.ndarray] = {"flat_size": np.int64(len(self._flat)),
                                        "lr": np.float64(self.lr)}
        state.update(self._state())
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore state saved by :meth:`state_dict` into this optimizer."""
        if int(state["flat_size"]) != len(self._flat):
            raise ValueError(
                f"optimizer state holds {int(state['flat_size'])} elements, "
                f"this optimizer has {len(self._flat)}")
        self.lr = float(state["lr"])
        self._load_state(state)

    def _state(self) -> Dict[str, np.ndarray]:
        return {}

    def _load_state(self, state: Dict[str, np.ndarray]) -> None:
        pass

    @staticmethod
    def _restore(buffer: np.ndarray, value: np.ndarray, name: str) -> None:
        value = np.asarray(value)
        if value.shape != buffer.shape:
            raise ValueError(f"optimizer state {name!r} has shape "
                             f"{value.shape}, expected {buffer.shape}")
        np.copyto(buffer, value, casting="same_kind")


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(parameters)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = np.zeros_like(self._flat)

    def _update(self, mask: Optional[np.ndarray]) -> None:
        grad, flat, velocity = self._grad, self._flat, self._velocity
        if self.weight_decay:
            grad += self.weight_decay * flat
        if self.momentum:
            if mask is None:
                velocity *= self.momentum
                velocity += grad
                flat -= self.lr * velocity
            else:
                np.copyto(velocity, self.momentum * velocity + grad, where=mask)
                np.subtract(flat, self.lr * velocity, out=flat, where=mask)
        else:
            if mask is None:
                flat -= self.lr * grad
            else:
                np.subtract(flat, self.lr * grad, out=flat, where=mask)

    def _state(self) -> Dict[str, np.ndarray]:
        return {"velocity": self._velocity.copy()}

    def _load_state(self, state: Dict[str, np.ndarray]) -> None:
        self._restore(self._velocity, state["velocity"], "velocity")


class Adam(Optimizer):
    """Adam with optional L2 regularization folded into the gradient."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)

    def _update(self, mask: Optional[np.ndarray]) -> None:
        self._step += 1
        bc1 = 1.0 - self.beta1 ** self._step
        bc2 = 1.0 - self.beta2 ** self._step
        grad, flat, m, v = self._grad, self._flat, self._m, self._v
        if self.weight_decay:
            grad += self.weight_decay * flat
        if mask is None:
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad ** 2
            flat -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        else:
            np.copyto(m, self.beta1 * m + (1 - self.beta1) * grad, where=mask)
            np.copyto(v, self.beta2 * v + (1 - self.beta2) * grad ** 2,
                      where=mask)
            update = self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            np.subtract(flat, update, out=flat, where=mask)

    def _state(self) -> Dict[str, np.ndarray]:
        return {"step": np.int64(self._step),
                "m": self._m.copy(), "v": self._v.copy()}

    def _load_state(self, state: Dict[str, np.ndarray]) -> None:
        self._step = int(state["step"])
        self._restore(self._m, state["m"], "m")
        self._restore(self._v, state["v"], "v")


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter).

    This is the optimizer the paper uses for all LM tuning (Section 5.1).
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float = 2e-5,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01) -> None:
        super().__init__(parameters, lr=lr, betas=betas, eps=eps, weight_decay=0.0)
        self.decoupled_weight_decay = weight_decay

    def _update(self, mask: Optional[np.ndarray]) -> None:
        if self.decoupled_weight_decay:
            flat = self._flat
            decay = self.lr * self.decoupled_weight_decay * flat
            if mask is None:
                flat -= decay
            else:
                np.subtract(flat, decay, out=flat, where=mask)
        super()._update(mask)


class LinearWarmupSchedule:
    """Linear warmup then linear decay of the learning rate."""

    def __init__(self, optimizer: Optimizer, warmup_steps: int, total_steps: int) -> None:
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.warmup_steps = max(0, warmup_steps)
        self.total_steps = total_steps
        self._step = 0

    def step(self) -> float:
        self._step += 1
        if self.warmup_steps and self._step <= self.warmup_steps:
            factor = self._step / self.warmup_steps
        else:
            remaining = max(self.total_steps - self._step, 0)
            denom = max(self.total_steps - self.warmup_steps, 1)
            factor = remaining / denom
        self.optimizer.lr = self.base_lr * factor
        return self.optimizer.lr
