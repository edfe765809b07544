"""Masked-language-model pre-training (the RoBERTa recipe, scaled down).

Dynamic masking: each epoch re-samples which 15% of (non-special) positions
are masked; of those, 80% become [MASK], 10% a random token, 10% stay
unchanged. The loss is cross-entropy on masked positions only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..autograd import AdamW, functional as F, gather_rows
from ..infer.engine import pack_buckets
from ..obs import get_telemetry
from ..text import Tokenizer
from .model import MiniLM, pad_batch

IGNORE_INDEX = -100


@dataclass
class PretrainConfig:
    """Hyperparameters of the MLM pre-training run."""

    epochs: int = 3
    batch_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 0.01
    mask_prob: float = 0.15
    #: extra masking probability for ``focus_tokens`` (label words): the
    #: corpus's relation statements are only useful if the decisive word is
    #: actually masked often enough to be learned as a cloze target.
    focus_mask_prob: float = 0.6
    focus_tokens: tuple = ()
    max_len: int = 64
    grad_clip: float = 1.0
    seed: int = 0
    #: pack mini-batches of similar-length sequences under ``rows x longest
    #: <= token_budget`` (capped at ``batch_size`` rows) so short sentences
    #: do not pay padded-position FLOPs up to the corpus maximum. ``None``
    #: falls back to fixed ``batch_size`` slices of the shuffled order.
    token_budget: Optional[int] = 4096
    #: visit sequences in exactly the seed loop's shuffled order (fixed
    #: ``batch_size`` slices), keeping the masking rng stream bit-identical
    #: to the original implementation -- the parity mode used by checkpoint
    #: zoo builds and the training benchmark.
    order_preserving: bool = False


@dataclass
class PretrainResult:
    """Loss trajectory of a pre-training run."""

    epoch_losses: List[float] = field(default_factory=list)
    #: optimizer steps taken (mini-batches that had >= 1 masked position)
    steps: int = 0

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


def mask_tokens(ids: np.ndarray, pad_mask: np.ndarray, vocab_size: int,
                mask_id: int, special_ids: Sequence[int],
                rng: np.random.Generator, mask_prob: float = 0.15,
                focus_ids: Sequence[int] = (),
                focus_mask_prob: float = 0.6):
    """Apply BERT-style dynamic masking.

    Returns (masked_ids, labels) where labels hold the original token at
    masked positions and IGNORE_INDEX elsewhere. Tokens in ``focus_ids``
    are masked with ``focus_mask_prob`` instead of ``mask_prob``.
    """
    ids = ids.copy()
    labels = np.full_like(ids, IGNORE_INDEX)

    eligible = ~pad_mask
    for sid in special_ids:
        eligible &= ids != sid

    threshold = np.full(ids.shape, mask_prob)
    if len(focus_ids):
        focused = np.isin(ids, np.asarray(list(focus_ids), dtype=np.int64))
        threshold[focused] = focus_mask_prob
    lottery = rng.random(ids.shape) < threshold
    chosen = eligible & lottery
    labels[chosen] = ids[chosen]

    action = rng.random(ids.shape)
    to_mask = chosen & (action < 0.8)
    to_random = chosen & (action >= 0.8) & (action < 0.9)
    ids[to_mask] = mask_id
    n_random = int(to_random.sum())
    if n_random:
        ids[to_random] = rng.integers(len(special_ids), vocab_size, size=n_random)
    return ids, labels


def _epoch_batches(order: np.ndarray, lengths: Sequence[int],
                   config: PretrainConfig, rng: np.random.Generator):
    """Yield corpus-index arrays for one epoch's mini-batches.

    Parity mode (``order_preserving`` or no ``token_budget``): fixed
    ``batch_size`` slices of the shuffled ``order``, exactly the seed loop.
    Fastpath: length-bucketed packing under the token budget, visiting
    buckets in random order so training sees no short-to-long curriculum.
    """
    if config.order_preserving or config.token_budget is None:
        for start in range(0, len(order), config.batch_size):
            yield order[start:start + config.batch_size]
        return
    shuffled_lengths = [lengths[i] for i in order]
    buckets = pack_buckets(shuffled_lengths, config.token_budget,
                           config.batch_size)
    for b in rng.permutation(len(buckets)):
        yield order[buckets[b]]


def pretrain(model: MiniLM, tokenizer: Tokenizer, corpus: Sequence[str],
             config: Optional[PretrainConfig] = None,
             verbose: bool = False) -> PretrainResult:
    """Pre-train ``model`` in place on ``corpus``; returns the loss trace."""
    config = config if config is not None else PretrainConfig()
    rng = np.random.default_rng(config.seed)
    vocab = tokenizer.vocab

    max_len = min(config.max_len, model.config.max_len)
    encoded = [tokenizer.encode(text, max_len=max_len).ids
               for text in corpus]
    encoded = [ids for ids in encoded if len(ids) > 2]
    if not encoded:
        raise ValueError("corpus produced no usable sequences")

    optimizer = AdamW(model.parameters(), lr=config.lr,
                      weight_decay=config.weight_decay)
    result = PretrainResult()
    model.train()

    focus_ids = [vocab.id_of(t) for t in config.focus_tokens if t in vocab]
    lengths = [len(ids) for ids in encoded]

    tel = get_telemetry()
    with tel.span("lm.pretrain", epochs=config.epochs,
                  sequences=len(encoded)):
        for epoch in range(config.epochs):
            order = rng.permutation(len(encoded))
            losses: List[float] = []
            epoch_tokens = 0
            masked_positions = 0
            epoch_started = time.perf_counter()
            for index in _epoch_batches(order, lengths, config, rng):
                batch = [encoded[i] for i in index]
                ids, pad_mask = pad_batch(batch, pad_id=vocab.pad_id)
                masked, labels = mask_tokens(
                    ids, pad_mask, vocab_size=len(vocab), mask_id=vocab.mask_id,
                    special_ids=vocab.special_ids, rng=rng,
                    mask_prob=config.mask_prob,
                    focus_ids=focus_ids,
                    focus_mask_prob=config.focus_mask_prob)
                rows, cols = np.nonzero(labels != IGNORE_INDEX)
                if not len(rows):
                    continue
                hidden = model.encode(masked, pad_mask=pad_mask)
                # project only masked positions through the (d, V) vocab head:
                # (n_masked, d) x (d, V) instead of (B*T, d) x (d, V).
                at_mask = gather_rows(hidden, rows, cols)
                loss = F.cross_entropy(model.mlm_logits(at_mask),
                                       labels[rows, cols])
                optimizer.zero_grad()
                loss.backward()
                optimizer.step(grad_clip=config.grad_clip)
                losses.append(loss.item())
                result.steps += 1
                if tel.enabled:
                    epoch_tokens += int(sum(lengths[i] for i in index))
                    masked_positions += len(rows)
                    tel.metrics.counter("pretrain.steps").inc()
            epoch_loss = float(np.mean(losses)) if losses else float("nan")
            result.epoch_losses.append(epoch_loss)
            if tel.enabled:
                epoch_elapsed = time.perf_counter() - epoch_started
                tel.event("pretrain.epoch", epoch=epoch,
                          mlm_loss=epoch_loss, steps=len(losses),
                          tokens=epoch_tokens,
                          masked_positions=masked_positions,
                          tokens_per_sec=epoch_tokens / epoch_elapsed
                          if epoch_elapsed > 0 else 0.0)
            if verbose:
                print(f"[pretrain] epoch {epoch + 1}/{config.epochs} mlm_loss={epoch_loss:.4f}")

    model.eval()
    return result
