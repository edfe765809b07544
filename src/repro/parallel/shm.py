"""A numpy array on a named shared-memory segment.

Lifecycle: the creating process owns the segment; ``close()`` unlinks it.
Forked children inherit the mapping and must never unlink. If
``shared_memory`` cannot allocate (e.g. no ``/dev/shm``), the array falls
back to process-local memory and ``is_shared`` reads False.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

try:
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - ancient python
    _shm = None


class SharedArray:
    """A numpy array on a shared-memory segment (or plain memory fallback).

    Created once in the parent *before* forking; children inherit the
    mapping, so parent writes are visible to them (and vice versa) without
    any message passing.
    """

    def __init__(self, shape: Tuple[int, ...], dtype) -> None:
        dtype = np.dtype(dtype)
        nbytes = max(int(np.prod(shape)) * dtype.itemsize, 1)
        self._segment = None
        if _shm is not None:
            try:
                self._segment = _shm.SharedMemory(create=True, size=nbytes)
            except (OSError, ValueError):  # no /dev/shm or size refused
                self._segment = None
        if self._segment is not None:
            self.array = np.ndarray(shape, dtype=dtype,
                                    buffer=self._segment.buf)
            self.array.fill(0)
        else:
            self.array = np.zeros(shape, dtype=dtype)

    @property
    def is_shared(self) -> bool:
        """True when backed by a real shared-memory segment."""
        return self._segment is not None

    def close(self) -> None:
        """Release and unlink the segment (owner side); idempotent."""
        segment, self._segment = self._segment, None
        self.array = None
        if segment is not None:
            try:
                segment.close()
                segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:  # pragma: no cover
            pass
