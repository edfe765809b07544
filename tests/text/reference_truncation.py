"""The pop-loop longest-first truncation kept as the oracle for
:func:`repro.text.tokenizer.truncate_longest_first`.

``Template._entity_ids`` and ``Tokenizer.encode_pair`` used to tokenize
both sides and pop tokens in this loop; they now slice memoized id lists
to the lengths the arithmetic helper returns, and
``tests/text/test_token_memo.py`` requires both to agree with this
function. Below this paragraph and the import, the function is the
replaced loop, unchanged apart from taking the two lists as arguments.
"""

from typing import List, Tuple


def truncate_pair(a: List, b: List, budget: int) -> Tuple[List, List]:
    """Pop from the longer side (the first on a tie) until both fit."""
    a, b = list(a), list(b)
    while len(a) + len(b) > budget:
        if len(a) >= len(b):
            a.pop()
        else:
            b.pop()
    return a, b
