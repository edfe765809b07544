"""The per-vocabulary tokenization memos: ``Tokenizer.token_ids`` (text ->
ids) and the ``wordpiece`` split memo.

Ids are a pure function of the text and the vocabulary, so every memoized
result must equal uncached tokenization: after eviction, after the
vocabulary grows, and while many threads tokenize at once.
"""

import random
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.text import Tokenizer, build_vocab, wordpiece
from repro.text import tokenizer as tokenizer_module
from repro.text.tokenizer import truncate_longest_first

from .reference_truncation import truncate_pair

CORPUS = [
    "golden dragon chinese restaurant main street",
    "[COL] title [VAL] database systems concepts [COL] year [VAL] 2003",
    "[COL] name [VAL] blue harbor grill [COL] city [VAL] san francisco",
    "quantum chromodynamics lattice simulations on heterogeneous clusters",
]


def uncached_ids(tok, text):
    """``token_ids`` computed with both memos disabled (cap 0)."""
    saved = (tokenizer_module._WORDPIECE_CACHE_CAP,
             tokenizer_module._IDS_CACHE_CAP)
    tokenizer_module._WORDPIECE_CACHE_CAP = 0
    tokenizer_module._IDS_CACHE_CAP = 0
    try:
        return tuple(tok.vocab.encode(tok.tokenize(text)))
    finally:
        (tokenizer_module._WORDPIECE_CACHE_CAP,
         tokenizer_module._IDS_CACHE_CAP) = saved


class TestTruncateLongestFirst:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 90))
    @example(0, 0, 0)
    @example(1, 0, 0)
    @example(0, 1, 0)
    @example(1, 1, 1)
    @example(0, 7, 4)
    @example(7, 0, 4)
    @example(5, 5, 7)
    @example(6, 5, 8)
    @example(5, 6, 9)
    def test_equals_pop_loop(self, len_a, len_b, budget):
        a, b = list(range(len_a)), list(range(100, 100 + len_b))
        want_a, want_b = truncate_pair(a, b, budget)
        assert truncate_longest_first(len_a, len_b, budget) == (
            len(want_a), len(want_b))

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            truncate_longest_first(1, 1, -1)

    @pytest.mark.parametrize("max_len", [3, 4, 9, 10, 16, 33])
    def test_encode_pair_equals_pop_loop_oracle(self, max_len):
        tok = Tokenizer(build_vocab(CORPUS, max_words=12))
        for left in CORPUS + [""]:
            for right in CORPUS + [""]:
                a, b = truncate_pair(tok.tokenize(left), tok.tokenize(right),
                                     max_len - 3)
                want = tok.vocab.encode(["[CLS]", *a, "[SEP]", *b, "[SEP]"])
                assert tok.encode_pair(left, right, max_len).ids == want


class TestTokenIds:
    def test_equals_uncached_tokenization(self):
        tok = Tokenizer(build_vocab(CORPUS, max_words=12))
        for text in CORPUS + ["", "zyx qqq 42", "[MASK] is to"]:
            want = uncached_ids(tok, text)
            assert tok.token_ids(text) == want  # miss
            assert tok.token_ids(text) == want  # hit
            assert tok.encode(text).tokens == tok.vocab.decode(
                [tok.vocab.cls_id, *want, tok.vocab.sep_id])

    def test_lru_keeps_at_most_cap_entries(self, monkeypatch):
        monkeypatch.setattr(tokenizer_module, "_IDS_CACHE_CAP", 2)
        tok = Tokenizer(build_vocab(CORPUS, max_words=12))
        for text in CORPUS:
            tok.token_ids(text)
        size, memo = tok.vocab._ids_memo
        assert size == len(tok.vocab)
        assert list(memo) == CORPUS[-2:]
        assert tok.token_ids(CORPUS[0]) == uncached_ids(tok, CORPUS[0])

    def test_shared_by_tokenizers_of_one_vocabulary(self):
        vocab = build_vocab(CORPUS, max_words=12)
        first, second = Tokenizer(vocab), Tokenizer(vocab)
        assert first.token_ids(CORPUS[1]) is second.token_ids(CORPUS[1])

    def test_memos_dropped_when_vocabulary_grows(self):
        vocab = build_vocab([""], max_words=0)
        tok = Tokenizer(vocab)
        spelled = tok.token_ids("zebras")
        assert wordpiece("zebras", vocab) == ["z", "##e", "##br", "##as"]
        assert len(spelled) == 4
        vocab.add("zebra")
        # the word memo must not serve the old split, nor the ids memo
        # the old ids, once "zebra" can be a longest match
        assert wordpiece("zebras", vocab) == ["zebra", "##s"]
        assert tok.token_ids("zebras") == (vocab.id_of("zebra"),
                                           vocab.id_of("##s"))
        assert tok.token_ids("zebras") == uncached_ids(tok, "zebras")


class TestConcurrentEviction:
    """Many threads tokenizing through memos capped to evict constantly.

    A compound memo step (a hit's ``get`` then ``move_to_end``; an
    insert's ``popitem``) can interleave with another thread's eviction;
    the memos must absorb that and every result must still equal
    uncached tokenization.
    """

    THREADS = 8
    SECONDS = 1.5

    def test_results_equal_uncached_tokenization(self, monkeypatch):
        words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
                 "golf", "hotel", "india", "juliet", "kilo", "lima"]
        rng = random.Random(0)
        texts = [" ".join(rng.sample(words, 5)) for _ in range(24)]
        tok = Tokenizer(build_vocab(["[COL] name [VAL]"], max_words=0))
        want = {text: uncached_ids(tok, text) for text in texts}
        want_pieces = {word: list(tok.vocab.decode(uncached_ids(tok, word)))
                       for word in words}
        monkeypatch.setattr(tokenizer_module, "_WORDPIECE_CACHE_CAP", 4)
        monkeypatch.setattr(tokenizer_module, "_IDS_CACHE_CAP", 4)
        failures = []
        stop = time.monotonic() + self.SECONDS

        def work(seed):
            order = random.Random(seed)
            try:
                while time.monotonic() < stop and not failures:
                    text = order.choice(texts)
                    if tok.token_ids(text) != want[text]:
                        failures.append(("token_ids", text))
                    word = order.choice(words)
                    if wordpiece(word, tok.vocab) != want_pieces[word]:
                        failures.append(("wordpiece", word))
            except Exception as error:  # a race surfaces as KeyError
                failures.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,))
                       for seed in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
