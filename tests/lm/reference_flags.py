"""The per-row ``MiniLM.duplicate_flags`` kept as the oracle for the
sort-based pass.

:meth:`repro.lm.MiniLM.duplicate_flags` flags every repeated
non-special id of a ``(B, T)`` batch in one sort over the whole batch;
``tests/lm/test_matching_features.py`` requires its flags to equal this
function's. Below this paragraph and the import, the function is the
replaced one, unchanged.
"""

import numpy as np


def duplicate_flags(token_ids: np.ndarray,
                    num_special: int = 7) -> np.ndarray:
    """(B, T) -> (B, T) int flags: 1 where a non-special token id occurs
    more than once within its sequence."""
    token_ids = np.asarray(token_ids, dtype=np.int64)
    flags = np.zeros_like(token_ids)
    for i, row in enumerate(token_ids):
        values, counts = np.unique(row, return_counts=True)
        repeated = set(values[(counts > 1) & (values >= num_special)])
        if repeated:
            flags[i] = np.isin(row, list(repeated)).astype(np.int64)
    return flags
