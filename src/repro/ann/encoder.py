"""Frozen bi-encoder: records -> L2-normalized mean-pooled embeddings.

The siamese :class:`~repro.baselines.sentencebert.SentenceBert` baseline
already shows the encoding recipe (serialize -> tokenize -> MiniLM ->
mean-pool over non-pad tokens); this module runs the same recipe *frozen*
-- straight off the pre-trained checkpoint, no fit -- which is what dense
blocking needs: a fixed embedding space that never shifts under the index.

Throughput comes from the same machinery the inference engine uses:

* per-record embeddings are memoized in an
  :class:`~repro.infer.cache.EncodingCache` keyed on
  ``EntityRecord.content_key()`` (content-addressed, so replacing a
  catalog record under an old id can never serve a stale vector);
* token ids come from :meth:`~repro.text.Tokenizer.token_ids`, memoized
  per vocabulary, so a record already tokenized for a scored pair (or at
  catalog ingestion) is not tokenized again here;
* uncached records are length-bucketed with
  :func:`~repro.infer.engine.pack_buckets` under a token budget, then
  forwarded through the raw-numpy :mod:`repro.infer.fastpath` encoder
  kernels (eval mode, so no dropout -- the output is deterministic).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..autograd import blocks
from ..baselines.lm_common import BackboneMixin
from ..data.records import EntityRecord
from ..data.serialize import serialize
from ..infer.cache import EncodingCache
from ..infer.engine import pack_buckets
from ..infer.fastpath import encoder_hidden
from ..lm.model import MiniLM, pad_batch
from ..text import Tokenizer


class RecordEncoder(BackboneMixin):
    """Fit-free record embedder over the shared pre-trained backbone.

    ``encode_records`` is the only entry point the index layer needs:
    ``(records) -> (N, D) float32`` unit vectors, batched and cached.
    """

    def __init__(self, model_name: str = "minilm-base",
                 lm: Optional[MiniLM] = None,
                 tokenizer: Optional[Tokenizer] = None,
                 max_len: int = 48, token_budget: int = 4096,
                 max_batch: int = 128,
                 cache_capacity: int = 32768) -> None:
        BackboneMixin.__init__(self, model_name=model_name, lm=lm,
                               tokenizer=tokenizer, token_budget=token_budget)
        if max_len < 2:
            raise ValueError("max_len must be >= 2")
        self.max_len = max_len
        self.max_batch = max_batch
        self.cache = EncodingCache(cache_capacity)
        self._frozen_lm: Optional[MiniLM] = None

    # ------------------------------------------------------------------
    def _backbone(self):
        """One frozen copy of the checkpoint, loaded lazily and kept in
        eval mode (dropout off) for the encoder's lifetime."""
        if self._frozen_lm is None:
            lm, _ = self.backbone()
            lm.eval()
            self._frozen_lm = lm
        return self._frozen_lm, self._tokenizer

    @property
    def dim(self) -> int:
        """Embedding dimensionality (the backbone's ``d_model``)."""
        lm, _ = self._backbone()
        return lm.config.d_model

    def encoding_fingerprint(self) -> tuple:
        """Cache-key component pinning the embedding space: any change to
        the checkpoint name or pooling recipe must miss old entries."""
        return ("record-encoder", self.model_name, self.max_len, "mean-l2")

    # ------------------------------------------------------------------
    def _embed_batch(self, lm: MiniLM, id_lists: List[List[int]],
                     pad_id: int) -> np.ndarray:
        """(B, D) mean-pooled unit embeddings via the fastpath kernels."""
        ids, pad_mask = pad_batch(id_lists, pad_id=pad_id)
        # eval mode: the embedding dropout draws nothing
        x = blocks.embed(lm, ids, lm.duplicate_flags(ids))
        hidden = encoder_hidden(lm, x, pad_mask)
        keep = (~pad_mask).astype(hidden.dtype)[:, :, None]
        pooled = (hidden * keep).sum(axis=1)
        pooled /= np.maximum(keep.sum(axis=1), 1.0)
        pooled = pooled.astype(np.float32, copy=False)
        norms = np.linalg.norm(pooled, axis=1, keepdims=True)
        # an empty/degenerate record keeps its zero vector (scores 0.0
        # against everything) instead of dividing by zero
        np.divide(pooled, norms, out=pooled, where=norms > 0)
        return pooled

    def encode_records(self, records: Sequence[EntityRecord]) -> np.ndarray:
        """(N, D) float32 unit embeddings, cache-aware and order-stable."""
        lm, tokenizer = self._backbone()
        fingerprint = self.encoding_fingerprint()
        keys = [(fingerprint, record.content_key()) for record in records]
        out = np.zeros((len(records), lm.config.d_model), dtype=np.float32)
        missing: List[int] = []
        seen = {}
        firsts: List[int] = []
        for i, key in enumerate(keys):
            if key in self.cache:
                missing.append(i)  # resolved through the cache below
            elif key in seen:
                missing.append(i)  # duplicate of an uncached record
            else:
                seen[key] = i
                firsts.append(i)
                missing.append(i)
        if firsts:
            max_len = min(self.max_len, lm.config.max_len)
            id_lists = [
                tokenizer.encode(serialize(records[i]), max_len=max_len).ids
                for i in firsts]
            buckets = pack_buckets([len(ids) for ids in id_lists],
                                   self.token_budget, self.max_batch)
            fresh = {}
            for idx in buckets:
                batch = self._embed_batch(
                    lm, [id_lists[j] for j in idx], tokenizer.vocab.pad_id)
                for row, j in enumerate(idx):
                    fresh[keys[firsts[int(j)]]] = batch[row]
            for key, vector in fresh.items():
                self.cache.get_or_encode(key, lambda v=vector: v)
        for i in missing:
            out[i] = self.cache.get_or_encode(
                keys[i], lambda: self._encode_one(records[i]))
        return out

    def _encode_one(self, record: EntityRecord) -> np.ndarray:
        lm, tokenizer = self._backbone()
        max_len = min(self.max_len, lm.config.max_len)
        ids = tokenizer.encode(serialize(record), max_len=max_len).ids
        return self._embed_batch(lm, [ids], tokenizer.vocab.pad_id)[0]

    def encode_record(self, record: EntityRecord) -> np.ndarray:
        """(D,) float32 unit embedding of one record (cached)."""
        return self.encode_records([record])[0]
