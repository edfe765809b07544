"""ServingIndex: the serving catalog's token-overlap index.

:class:`ServingIndex` is :class:`repro.data.blocking.OverlapIndex` under
its serving name -- the same class object, not a subclass -- so the
:class:`~repro.serve.server.MatchServer`'s sparse candidates, every pool
shard (through :class:`~repro.serve.shard.ShardedIndex`) and the offline
:class:`~repro.data.blocking.OverlapBlocker` sweep run one
implementation. Storage, ranking and locking are described there.
"""

from __future__ import annotations

from ..data.blocking import OverlapIndex as ServingIndex

__all__ = ["ServingIndex"]
