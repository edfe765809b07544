"""Privacy-preserving matching: CLK Bloom filters + popcount Dice kernels.

PromptEM's plaintext pipeline assumes both parties' attribute values are
visible to the matcher.  This package adds the PPRL (privacy-preserving
record linkage) mode for the scenarios where records cannot leave their
owner in plaintext:

* :class:`ClkEncoder` -- salted q-gram Bloom-filter (CLK) encodings packed
  as uint64, with ``balance``/``fold`` hardening (the graphMatching
  BFEncoder design, keyed with HMAC so a dictionary-holding adversary
  learns nothing without the salt);
* :mod:`repro.privacy.kernels` -- vectorized popcount (``np.bitwise_count``
  + byte-LUT cross-check) and blocked streaming Dice top-k, bit-exact
  against the pure-Python reference;
* :class:`PrivateBlocker` -- the offline blocking stage over CLKs, same
  :class:`~repro.data.blocking.BlockingResult` contract as the sparse and
  dense blockers;
* :class:`ClkCandidateIndex` -- the online catalog with incremental
  add/remove/replace, pluggable into :class:`repro.serve.MatchServer` via
  ``candidate_mode="clk"``;
* :class:`ClkCatalog` -- the schema-versioned on-disk artifact one party
  ships to the matching server: ids + filter bytes, never raw values,
  never the salt.

See ``docs/PRIVACY.md`` for the threat model, hardening trade-offs, and
salt management, and ``benchmarks/bench_pprl.py`` for the kernel speedup
and privacy/F1 numbers.
"""

from .blocker import PrivateBlocker, exact_clk_topk
from .catalog import CLK_SCHEMA_VERSION, ClkCatalog, ClkCatalogError
from .encoder import (
    HARDENING_MODES, ClkConfig, ClkEncoder, clk_from_bytes, clk_to_bytes,
)
from .index import ClkCandidateIndex
from .kernels import (
    dice_reference, dice_scores, dice_topk, naive_dice_scores, popcount,
    popcount_bytes, popcount_reference, popcount_words, topk_candidates,
)

__all__ = [
    "ClkConfig", "ClkEncoder", "HARDENING_MODES",
    "clk_to_bytes", "clk_from_bytes",
    "ClkCatalog", "ClkCatalogError", "CLK_SCHEMA_VERSION",
    "ClkCandidateIndex",
    "PrivateBlocker", "exact_clk_topk",
    "popcount", "popcount_words", "popcount_bytes", "popcount_reference",
    "dice_scores", "dice_topk", "dice_reference", "naive_dice_scores",
    "topk_candidates",
]
