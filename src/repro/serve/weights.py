"""Shared-memory model weights for replicated serving.

:class:`SharedBundleWeights` publishes one model to many processes: one
process (the pool router) owns the weights, N forked replicas map them
**zero-copy** -- each replica rebinds its model's ``Parameter.data`` arrays
to numpy views straight into the shared segment, so a swap never pickles
or copies a model per replica and all replicas flip together when the
version counter moves.

Publishing must not tear a batch that another process is mid-forward on,
so the store double-buffers:

* the flat parameter buffer has ``slots`` rows (default 2); version ``v``
  lives in row ``v % slots``;
* :meth:`publish` writes the *inactive* row completely (weights, then
  threshold and bundle name side-channels), and only then bumps the
  version counter -- a replica that still reads the old version sees an
  untouched row;
* before overwriting a row, publish waits until every **live** replica
  has adopted at least ``version - slots + 1`` (replicas record their
  adopted version in a shared per-replica array at each batch boundary),
  i.e. nobody can still be computing on the row about to be reused.  A
  replica that stops adopting (dead or wedged) only blocks for
  ``guard_timeout_s``; the pool detects and respawns it separately.

Replica side, :meth:`adopt` is called at every batch boundary (the
replica server's ``_snapshot``): when the version moved it rebinds all
parameter views onto the new row and updates the bundle's threshold and
name from the side-channels, then records the adoption.  Rebinding is a
handful of ``np.ndarray`` view constructions -- no weight bytes move.

A :meth:`fingerprint` derived from the parameter names/shapes/dtype pins
publisher and replicas to one architecture.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_telemetry
from ..parallel.shm import SharedArray

#: fixed byte budget for the published bundle name (utf-8, truncated)
_NAME_BYTES = 120


class SharedBundleWeights:
    """Double-buffered shared-memory weight slots + version guard."""

    def __init__(self, model, replicas: int, slots: int = 2,
                 guard_timeout_s: float = 5.0) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if slots < 2:
            raise ValueError("need >= 2 slots to double-buffer swaps")
        self.specs = self._specs(model)
        self.flat_size = sum(size for _, _, size in self.specs)
        self.dtype = np.dtype(next(iter(model.parameters())).data.dtype)
        self.replicas = int(replicas)
        self.slots = int(slots)
        self.guard_timeout_s = float(guard_timeout_s)
        self._values = SharedArray((self.slots, self.flat_size), self.dtype)
        self._version = SharedArray((1,), np.int64)
        #: adopted[r] = newest version replica r has rebound to (written by
        #: the replica at its batch boundary, read by the publish guard)
        self._adopted = SharedArray((self.replicas,), np.int64)
        self._thresholds = SharedArray((self.slots,), np.float64)
        self._has_threshold = SharedArray((self.slots,), np.int8)
        self._names = SharedArray((self.slots, _NAME_BYTES + 1), np.uint8)

    # ------------------------------------------------------------------
    @staticmethod
    def _specs(model) -> Tuple[Tuple[str, Tuple[int, ...], int], ...]:
        specs = tuple((name, tuple(param.data.shape), int(param.data.size))
                      for name, param in model.named_parameters())
        if not specs:
            raise ValueError("model has no parameters to share")
        return specs

    def fingerprint(self) -> tuple:
        return (str(self.dtype),) + self.specs

    def _check(self, model) -> None:
        specs = self._specs(model)
        if specs != self.specs:
            get_telemetry().metrics.counter(
                "pool.fingerprint_mismatches").inc()
            raise ValueError(
                "shared-weight fingerprint mismatch: the published model's "
                "parameter names/shapes differ from the pool's architecture")

    @property
    def is_shared(self) -> bool:
        """True when every segment is real shared memory; without it a
        publish would be invisible to forked replicas."""
        return all(seg.is_shared for seg in
                   (self._values, self._version, self._adopted,
                    self._thresholds, self._has_threshold, self._names))

    @property
    def version(self) -> int:
        return int(self._version.array[0])

    def adopted_versions(self) -> List[int]:
        return [int(v) for v in self._adopted.array]

    # ------------------------------------------------------------------
    # Publisher side (pool router)
    # ------------------------------------------------------------------
    def _guard(self, floor: int, live: Sequence[int]) -> bool:
        """Wait until every live replica adopted >= ``floor``; False on
        timeout (a stuck replica must not block swaps forever -- the pool
        respawns it, and a respawned replica adopts the newest version)."""
        deadline = time.monotonic() + self.guard_timeout_s
        while True:
            adopted = self._adopted.array
            if all(int(adopted[r]) >= floor for r in live):
                return True
            if time.monotonic() >= deadline:
                get_telemetry().metrics.counter(
                    "pool.swap_guard_timeouts").inc()
                return False
            time.sleep(0.0005)

    def publish(self, model, name: str = "bundle",
                threshold: Optional[float] = None,
                live: Optional[Sequence[int]] = None) -> int:
        """Write ``model``'s weights into the next slot and bump the
        version; returns the new version.  ``live`` lists the replica
        indices the overwrite guard must wait for (default: all)."""
        self._check(model)
        version = self.version + 1
        slot = version % self.slots
        if version > self.slots:
            # the row being reused last held version - slots; wait until
            # nobody can still be forwarding on it
            self._guard(version - self.slots + 1,
                        range(self.replicas) if live is None else live)
        flat = self._values.array[slot]
        offset = 0
        for (_, _, size), (_, param) in zip(self.specs,
                                            model.named_parameters()):
            np.copyto(flat[offset:offset + size],
                      param.data.reshape(-1), casting="same_kind")
            offset += size
        self._thresholds.array[slot] = (0.0 if threshold is None
                                        else float(threshold))
        self._has_threshold.array[slot] = 0 if threshold is None else 1
        encoded = str(name).encode("utf-8")[:_NAME_BYTES]
        row = self._names.array[slot]
        row[0] = len(encoded)
        row[1:1 + len(encoded)] = np.frombuffer(encoded, dtype=np.uint8)
        # weights and side-channels are complete: only now flip the version
        self._version.array[0] = version
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter("pool.publishes").inc()
            tel.metrics.gauge("pool.swap_version").set(version)
        return version

    # ------------------------------------------------------------------
    # Replica side
    # ------------------------------------------------------------------
    def slot_views(self, version: int) -> List[np.ndarray]:
        """Zero-copy parameter views of ``version``'s slot, in spec order."""
        flat = self._values.array[version % self.slots]
        views, offset = [], 0
        for _, shape, size in self.specs:
            views.append(flat[offset:offset + size].reshape(shape))
            offset += size
        return views

    def read_meta(self, version: int) -> Tuple[str, Optional[float]]:
        slot = version % self.slots
        row = self._names.array[slot]
        name = bytes(row[1:1 + int(row[0])]).decode("utf-8", "replace")
        threshold = (float(self._thresholds.array[slot])
                     if self._has_threshold.array[slot] else None)
        return name, threshold

    def adopt(self, model, replica: int, seen: int) -> int:
        """Rebind ``model`` onto the newest slot if the version moved past
        ``seen``; records the adoption and returns the version now in use.

        Called at every batch boundary.  The parameters become views into
        shared memory -- the model must only be *read* (serving forwards
        run under ``no_grad``), never updated in place.

        The no-movement path skips the fingerprint check on purpose: a
        bound tenant delta may have added parameters (adapters) to the
        model between batches, and nothing is rebound in that case.  When
        the version did move the caller must present the pristine
        backbone topology (unbind tenant deltas first) or the check
        refuses the rebind.
        """
        version = self.version
        if version == seen:
            return seen
        self._check(model)
        for view, (_, param) in zip(self.slot_views(version),
                                    model.named_parameters()):
            param.data = view
        self._adopted.array[replica] = version
        return version

    # ------------------------------------------------------------------
    def close(self) -> None:
        for seg in (self._values, self._version, self._adopted,
                    self._thresholds, self._has_threshold, self._names):
            seg.close()

    def __enter__(self) -> "SharedBundleWeights":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
