"""Online matching service: model bundles, micro-batching, hot swap.

The serving layer turns the offline reproduction into a query-shaped
service (the deployment form real EM systems take):

* :class:`ModelBundle` -- a one-directory artifact (weights, vocabulary,
  template, verbalizer, tuned threshold) that a server loads without
  importing any training code;
* :class:`ServingIndex` -- an incrementally maintained inverted-index
  catalog with top-k candidate retrieval
  (:class:`repro.data.blocking.OverlapIndex` under its serving name);
* :class:`DenseCandidateIndex` -- the same catalog protocol over a
  :mod:`repro.ann` embedding index (sub-linear dense retrieval), selected
  per-server via ``candidate_mode`` and flippable through
  ``POST /admin/candidates``;
* :class:`MatchServer` -- bounded request queue, dynamic micro-batching
  of whatever queued while the previous batch was scored (capped by rows
  and a token budget), explicit :class:`Overloaded` shedding, and atomic
  bundle hot-swap between batches;
* :class:`ServingPool` -- N forked replica workers over one
  shared-memory weight map (:class:`SharedBundleWeights`), a load-aware
  front router with per-replica bounded queues and redispatch-on-death,
  and a hash-sharded candidate layer (:class:`ShardedIndex`): every
  replica -- and the serial in-process fallback -- is a
  :class:`MatchServer` over the shards it owns;
* :mod:`repro.serve.http` -- a stdlib HTTP front end plus a socket-free
  JSONL request driver; both drive any :class:`ServingFront` -- the
  surface a server and a pool share by construction.

The privacy-preserving path (``candidate_mode="clk"``) plugs a
:class:`repro.privacy.ClkCandidateIndex` into the same surfaces: catalog
adds, match queries, and responses carry only packed Bloom-filter bytes
and record ids -- see ``docs/PRIVACY.md``.

See ``docs/SERVING.md`` for the bundle format, scheduler knobs,
backpressure semantics, and the hot-swap contract.
"""

from .bundle import BUNDLE_SCHEMA_VERSION, BundleError, ModelBundle
from .http import (
    MatchHTTPServer, ProtocolError, handle_request, read_jsonl,
    serve_requests,
)
from .index import ServingIndex
from .server import (
    ClkCandidate, ClkMatchResponse, MatchCandidate, MatchResponse,
    MatchServer, Overloaded, PendingMatch, PendingResponse, ScoreResponse,
    ServerConfig, ServingFront,
)
from .shard import ShardedIndex, merge_topk, shard_of
from .weights import SharedBundleWeights

__all__ = [
    "ModelBundle", "BundleError", "BUNDLE_SCHEMA_VERSION",
    "DeltaBundle", "DELTA_SCHEMA_VERSION", "backbone_fingerprint",
    "TenantRegistry", "TenantEntry", "TenantError", "UnknownTenant",
    "ServingIndex", "DenseCandidateIndex",
    "ShardedIndex", "shard_of", "merge_topk",
    "ServingFront", "MatchServer", "ServerConfig", "Overloaded",
    "ServingPool", "PoolConfig", "SharedBundleWeights",
    "ScoreResponse", "MatchResponse", "MatchCandidate",
    "ClkMatchResponse", "ClkCandidate",
    "PendingResponse", "PendingMatch",
    "MatchHTTPServer", "serve_requests", "handle_request", "read_jsonl",
    "ProtocolError",
]


def __getattr__(name):  # PEP 562
    # resolved lazily because the dense path pulls in the bi-encoder
    # stack (repro.ann -> repro.baselines); a sparse-only server that
    # just loads a bundle must stay free of training-adjacent imports
    if name == "DenseCandidateIndex":
        from .dense import DenseCandidateIndex

        return DenseCandidateIndex
    if name in ("ServingPool", "PoolConfig"):
        from . import pool

        return getattr(pool, name)
    # delta/tenant machinery pulls in repro.core.peft; a single-tenant
    # server that just loads a full bundle should not pay for it
    if name in ("DeltaBundle", "DELTA_SCHEMA_VERSION",
                "backbone_fingerprint"):
        from . import delta

        return getattr(delta, name)
    if name in ("TenantRegistry", "TenantEntry", "TenantError",
                "UnknownTenant"):
        from . import tenants

        return getattr(tenants, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
