"""Fork and shared-memory helpers for the serving pool.

:mod:`repro.serve.pool` forks its replicas only when :func:`fork_available`
says so (never under :func:`force_serial` or ``REPRO_FORCE_SERIAL``), and
publishes weights to them through :class:`SharedArray` segments
(:mod:`repro.serve.weights`).
"""

from .pool import FORCE_SERIAL_ENV, force_serial, fork_available
from .shm import SharedArray

__all__ = [
    "FORCE_SERIAL_ENV",
    "force_serial",
    "fork_available",
    "SharedArray",
]
