"""Whether this process may fork, with a switch that turns forking off.

The serving pool forks replicas only when :func:`fork_available` is true;
otherwise it runs the same executor in-process. :func:`force_serial` (a
block) and the ``REPRO_FORCE_SERIAL`` environment variable (a whole run)
force that serial fallback -- the forced-serial tests and CI's serial rerun
of ``tests/serve`` rely on them.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from contextlib import contextmanager

#: environment switch that disables forking everywhere (CI debugging and the
#: forced-serial fallback tests); any non-empty value counts
FORCE_SERIAL_ENV = "REPRO_FORCE_SERIAL"

_FORCE_SERIAL = False


@contextmanager
def force_serial():
    """Run the block with forking disabled: every pool degrades to serial."""
    global _FORCE_SERIAL
    previous = _FORCE_SERIAL
    _FORCE_SERIAL = True
    try:
        yield
    finally:
        _FORCE_SERIAL = previous


def fork_available() -> bool:
    """True when fork-based processes can be used on this platform."""
    if _FORCE_SERIAL or os.environ.get(FORCE_SERIAL_ENV):
        return False
    try:
        return "fork" in mp.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False
