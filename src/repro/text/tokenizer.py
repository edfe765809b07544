"""WordPiece-style tokenizer for serialized GEM sequences.

Mirrors the HuggingFace tokenizer behaviour the paper depends on:

* special tags ([CLS], [SEP], [MASK], [COL], [VAL], ...) are atomic;
* text is lower-cased and split on whitespace/punctuation;
* numbers are split into single digits -- deliberately, because the paper's
  error analysis (Appendix C) hinges on LMs being poor at digit semantics,
  and digit-level tokens reproduce that behaviour;
* out-of-vocabulary words fall back to greedy longest-match subword pieces
  ("##"-prefixed continuations), and ultimately to single characters, so no
  input ever becomes an unrecoverable [UNK] unless it contains characters
  outside [a-z0-9].
"""

from __future__ import annotations

import re
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from .vocab import SPECIAL_TOKENS, Vocabulary

_SPECIAL_SET = set(SPECIAL_TOKENS)
_WORD_RE = re.compile(r"[a-z]+|[0-9]|[^\sa-z0-9]")
_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_DIGITS = "0123456789"


def basic_tokenize(text: str) -> List[str]:
    """Split raw text into word / digit / punctuation tokens.

    Special tags pass through unchanged; everything else is lower-cased.
    Digits come out one per token.
    """
    tokens: List[str] = []
    for chunk in text.split():
        if chunk in _SPECIAL_SET:
            tokens.append(chunk)
            continue
        tokens.extend(_WORD_RE.findall(chunk.lower()))
    return tokens


#: entries kept per vocabulary in the wordpiece memo below
_WORDPIECE_CACHE_CAP = 32768
#: entries kept per vocabulary in the text -> ids memo of Tokenizer.token_ids
_IDS_CACHE_CAP = 8192


def _vocab_memo(vocab: Vocabulary, attr: str) -> OrderedDict:
    """The LRU held as ``attr`` on ``vocab``, replaced by an empty one
    whenever the vocabulary has grown since it was made (new entries can
    change a longest match).

    The memo and the vocabulary size it belongs to are stored as one
    tuple, so no reader pairs a new size with an old memo. No lock guards
    the memos: each step is one OrderedDict call, atomic under the GIL,
    and :func:`_memo_get` / :func:`_memo_put` tolerate an eviction by
    another thread between their steps. Threads share the memos freely,
    and a fork never inherits a held lock.
    """
    held = vocab.__dict__.get(attr)
    size = len(vocab)
    if held is None or held[0] != size:
        held = (size, OrderedDict())
        setattr(vocab, attr, held)
    return held[1]


def _memo_get(memo: OrderedDict, key: str):
    """``memo[key]`` marked most recently used, or ``None``."""
    hit = memo.get(key)
    if hit is not None:
        try:
            memo.move_to_end(key)
        except KeyError:  # evicted by another thread since the get
            pass
    return hit


def _memo_put(memo: OrderedDict, key: str, value, cap: int) -> None:
    """Store ``value`` and evict the least recently used entry past ``cap``."""
    memo[key] = value
    if len(memo) > cap:
        try:
            memo.popitem(last=False)
        except KeyError:  # other threads' evictions emptied it first
            pass


def wordpiece(word: str, vocab: Vocabulary, max_chars: int = 64) -> List[str]:
    """Greedy longest-match-first subword split of an alphabetic ``word``.

    Memoized per vocabulary: records repeat the same words constantly, and
    the greedy loop probes O(len^2) substrings per miss. The LRU lives on
    the vocabulary object (splits are a pure function of word + vocab
    contents) and is dropped whenever the vocabulary grows.
    """
    memo = _vocab_memo(vocab, "_wordpiece_memo")
    hit = _memo_get(memo, word)
    if hit is not None:
        return list(hit)
    pieces = _wordpiece_split(word, vocab, max_chars)
    _memo_put(memo, word, tuple(pieces), _WORDPIECE_CACHE_CAP)
    return pieces


def _wordpiece_split(word: str, vocab: Vocabulary,
                     max_chars: int) -> List[str]:
    """The uncached greedy split behind :func:`wordpiece`."""
    if len(word) > max_chars:
        return ["[UNK]"]
    pieces: List[str] = []
    start = 0
    while start < len(word):
        end = len(word)
        piece = None
        while end > start:
            candidate = word[start:end]
            if start > 0:
                candidate = "##" + candidate
            if candidate in vocab:
                piece = candidate
                break
            end -= 1
        if piece is None:
            return ["[UNK]"]
        pieces.append(piece)
        start = end
    return pieces


def truncate_longest_first(len_a: int, len_b: int,
                           budget: int) -> Tuple[int, int]:
    """Kept lengths of two token lists cut longest-first to ``budget``.

    Equals popping the last token of the longer list (the first list on
    a tie) until the two fit: a side no longer than half the budget stays
    whole and the other takes the rest; otherwise the first side keeps
    ``budget // 2`` and the second the remainder.
    """
    if budget < 0:
        raise ValueError(f"budget={budget} must be >= 0")
    if len_a + len_b <= budget:
        return len_a, len_b
    if 2 * len_b <= budget:
        return budget - len_b, len_b
    if 2 * len_a <= budget:
        return len_a, budget - len_a
    return budget // 2, budget - budget // 2


@dataclass
class Encoding:
    """Token ids of one encoded text or pair; ``tokens`` decodes them."""

    ids: List[int]
    vocab: Vocabulary = field(repr=False, compare=False)

    @property
    def tokens(self) -> List[str]:
        return self.vocab.decode(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


class Tokenizer:
    """Tokenizer bound to a :class:`Vocabulary`."""

    def __init__(self, vocab: Vocabulary) -> None:
        self.vocab = vocab

    def tokenize(self, text: str) -> List[str]:
        """Text -> subword token strings (no special wrapping)."""
        out: List[str] = []
        for token in basic_tokenize(text):
            if token in _SPECIAL_SET or token in self.vocab:
                out.append(token)
            elif token.isalpha():
                out.extend(wordpiece(token, self.vocab))
            else:
                out.append("[UNK]")
        return out

    def token_ids(self, text: str) -> Tuple[int, ...]:
        """Vocabulary ids of :meth:`tokenize` (no special wrapping).

        Memoized per vocabulary beside the :func:`wordpiece` memo, and
        dropped with it when the vocabulary grows: ids are a pure function
        of the text and the vocabulary, and a record's serialized text
        recurs in every pair and every dense lookup it takes part in. The
        tuple is shared by all callers; slice it, never mutate it.
        """
        memo = _vocab_memo(self.vocab, "_ids_memo")
        ids = _memo_get(memo, text)
        if ids is None:
            ids = tuple(self.vocab.encode(self.tokenize(text)))
            _memo_put(memo, text, ids, _IDS_CACHE_CAP)
        return ids

    def encode(self, text: str, max_len: Optional[int] = None,
               add_special: bool = True) -> Encoding:
        """Encode a single text as [CLS] tokens [SEP]."""
        ids = self.token_ids(text)
        if add_special:
            if max_len is not None:
                ids = ids[:max(max_len - 2, 0)]
            ids = [self.vocab.cls_id, *ids, self.vocab.sep_id]
        else:
            ids = list(ids if max_len is None else ids[:max_len])
        return Encoding(ids=ids, vocab=self.vocab)

    def encode_pair(self, left: str, right: str, max_len: int) -> Encoding:
        """Encode ``[CLS] left [SEP] right [SEP]`` with longest-first truncation."""
        a = self.token_ids(left)
        b = self.token_ids(right)
        budget = max_len - 3
        if budget < 0:
            raise ValueError(f"max_len={max_len} too small for a sequence pair")
        keep_a, keep_b = truncate_longest_first(len(a), len(b), budget)
        sep = self.vocab.sep_id
        ids = [self.vocab.cls_id, *a[:keep_a], sep, *b[:keep_b], sep]
        return Encoding(ids=ids, vocab=self.vocab)


def build_vocab(texts: Iterable[str], max_words: int = 4000,
                min_count: int = 1) -> Vocabulary:
    """Build a vocabulary from raw texts.

    Always includes: single letters + digits (standalone and as "##"
    continuations) so the wordpiece fallback can spell out any unseen word,
    then the most frequent whole words.
    """
    counts: Counter = Counter()
    for text in texts:
        for token in basic_tokenize(text):
            if token not in _SPECIAL_SET:
                counts[token] += 1

    vocab = Vocabulary()
    for ch in _LETTERS + _DIGITS:
        vocab.add(ch)
        vocab.add("##" + ch)
    # Frequent bigram continuations make wordpiece splits shorter.
    for first in _LETTERS:
        for second in "aeiounrst":
            vocab.add("##" + first + second)

    added_words = 0
    for token, count in counts.most_common():
        if added_words >= max_words:
            break
        if count >= min_count and token not in vocab:
            vocab.add(token)
            added_words += 1
    return vocab
