"""The array-backed ServingIndex against the dict-of-set index it replaced.

``reference_index.ServingIndex`` is the replaced implementation, kept as
the oracle: every operation is applied to both, and every observable --
``len``, ``get``, ``stats()`` and each query's ids and scores -- must be
exactly equal, on random operation sequences and on the match-churn
catalog. A threaded stress test checks the postings stay consistent
while writers and readers race.
"""

import dataclasses
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, invariant, rule, run_state_machine_as_test,
)

from repro.data.blocking import record_tokens
from repro.data.records import EntityRecord
from repro.kernels import rank_key, top_rows
from repro.serve import ServingIndex

from .reference_index import ServingIndex as ReferenceIndex

#: a small universe, so re-adds, removes, recycled rows and ties are common
IDS = [f"r{i}" for i in (7, 2, 9, 0, 5, 3, 8, 1)]
WORDS = ["alpha", "beta", "gamma", "delta", "omega", "x"]  # "x" is dropped

token_lists = st.lists(st.sampled_from(WORDS), max_size=5)
entries = st.tuples(st.sampled_from(IDS), token_lists)


def rec(rid, words):
    return EntityRecord.text_record(rid, " ".join(words))


def hits(results):
    return [(record.record_id, score) for record, score in results]


def index_machine(threshold, min_shared):
    class IndexMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.new = ServingIndex(threshold, min_shared, default_k=3)
            self.ref = ReferenceIndex(threshold, min_shared, default_k=3)

        @rule(entry=entries)
        def add(self, entry):
            record = rec(*entry)
            assert self.new.add(record) == self.ref.add(record)

        @rule(batch=st.lists(entries, max_size=6))
        def add_many(self, batch):
            records = [rec(*entry) for entry in batch]
            assert self.new.add_many(records) == self.ref.add_many(records)

        @rule(rid=st.sampled_from(IDS + ["ghost"]))
        def remove(self, rid):
            assert self.new.remove(rid) == self.ref.remove(rid)

        @rule(words=token_lists, k=st.integers(1, len(IDS) + 1),
              default=st.booleans())
        def query(self, words, k, default):
            k = None if default else k
            query = rec("q", words)
            assert hits(self.new.candidates(query, k)) == \
                hits(self.ref.candidates(query, k))

        @invariant()
        def same_catalog(self):
            assert len(self.new) == len(self.ref)
            assert self.new.stats() == self.ref.stats()
            for rid in IDS:
                assert self.new.get(rid) == self.ref.get(rid)
                assert (rid in self.new) == (rid in self.ref)

    return IndexMachine


@pytest.mark.parametrize("min_shared", (1, 2))
@pytest.mark.parametrize("threshold", (0.0, 0.3, 0.6))
def test_state_machine_matches_reference(threshold, min_shared):
    run_state_machine_as_test(
        index_machine(threshold, min_shared),
        settings=settings(max_examples=15, stateful_step_count=25,
                          deadline=None))


class TestPinnedCases:
    """Cases the state machine finds only by luck, written out."""

    def test_duplicate_id_in_one_batch_links_last_copy_only(self):
        index = ServingIndex()
        assert index.add_many([rec("a", ["alpha", "beta"]),
                               rec("a", ["gamma", "delta"])]) == 1
        assert index.stats() == {"records": 1, "tokens": 2, "postings": 2}
        assert index.candidates(rec("q", ["alpha", "beta"])) == []
        assert hits(index.candidates(rec("q", ["gamma"]))) == [("a", 1.0)]

    def test_recycled_row_starts_unlinked(self):
        index = ServingIndex()
        index.add_many([rec("a", ["alpha", "beta"]), rec("b", ["beta"])])
        assert index.remove("a")
        index.add(rec("c", ["gamma"]))  # takes row 0, freed by "a"
        assert hits(index.candidates(rec("q", ["alpha"]))) == []
        assert hits(index.candidates(rec("q", ["beta"]))) == [("b", 1.0)]
        assert index.stats() == {"records": 2, "tokens": 2, "postings": 2}

    def test_ties_break_by_id_not_insertion_order(self):
        index = ServingIndex()
        for rid in ("m", "z", "b", "a", "q"):
            index.add(rec(rid, ["alpha", "beta"]))
        index.remove("b")
        index.add(rec("c", ["alpha", "beta"]))  # reuses b's row
        got = index.candidates(rec("q0", ["alpha", "beta"]), k=3)
        assert [record.record_id for record, _ in got] == ["a", "c", "m"]

    def test_order_keys_renumber_when_a_gap_closes(self):
        """Each new id sorts between the previous one and "b", halving
        the gap between their order keys until every key is spaced out
        again; ties keep breaking by id throughout."""
        index = ServingIndex()
        ids = ["a", "b"]
        index.add_many([rec(rid, ["alpha"]) for rid in ids])
        for j in range(1, 70):
            ids.append("a" + "z" * j)
            index.add(rec(ids[-1], ["alpha"]))
            got = index.candidates(rec("q", ["alpha"]), k=len(ids))
            assert [record.record_id for record, _ in got] == sorted(ids)

    def test_tokenless_records_are_held_but_never_candidates(self):
        index = ServingIndex(min_shared_tokens=1)
        index.add_many([rec("e", []), rec("s", ["x"]), rec("t", ["alpha"])])
        assert len(index) == 3 and index.get("e") is not None
        assert hits(index.candidates(rec("q", ["alpha"]), k=3)) == \
            [("t", 1.0)]
        assert index.candidates(rec("q", [])) == []


@settings(max_examples=100, deadline=None)
@given(scores=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1 / 3, 1.0]),
                       max_size=40),
       k=st.integers(1, 45), seed=st.integers(0, 2 ** 16))
def test_top_rows_is_rank_key_over_arrays(scores, k, seed):
    names = [f"id{i:03d}" for i in
             np.random.default_rng(seed).permutation(len(scores))]
    order = np.argsort(np.argsort(names))  # place of each id in id order
    want = sorted(range(len(scores)),
                  key=lambda i: rank_key(names[i], scores[i]))[:k]
    got = top_rows(np.asarray(scores, dtype=np.float64), order, k)
    assert got.tolist() == want


@pytest.fixture(scope="module")
def churn_catalog():
    """The match-churn workload's catalog: SEMI-REL, 1,100 entities."""
    from repro.data.generators.base import GeneratorConfig
    from repro.data.generators.movies import SemiRelGenerator

    dataset = SemiRelGenerator(GeneratorConfig(
        num_entities=1100, extra_right_rows=275)).build(seed=1)
    return list(dataset.right_table.records), list(dataset.left_table.records)


def test_match_churn_catalog_matches_reference(churn_catalog):
    catalog, queries = churn_catalog
    assert len(catalog) == 1949
    new, ref = ServingIndex(), ReferenceIndex()
    assert new.add_many(catalog) == ref.add_many(catalog) == len(catalog)
    rng = np.random.default_rng(1)
    ids = [record.record_id for record in catalog]
    asked = 0
    for step in range(360):
        if step % 6 == 5:  # a mutated re-add, or a remove
            rid = ids[int(rng.integers(len(ids)))]
            if rng.random() < 0.7:
                record = new.get(rid) or catalog[0]
                values = dict(record.values, revision=f"rev {step} {rid}")
                record = dataclasses.replace(record, record_id=rid,
                                             values=values)
                assert new.add(record) == ref.add(record)
            else:
                assert new.remove(rid) == ref.remove(rid)
            continue
        query = queries[int(rng.integers(len(queries)))]
        assert hits(new.candidates(query, 5)) == \
            hits(ref.candidates(query, 5)), query.record_id
        asked += 1
    assert asked == 300
    assert new.stats() == ref.stats()


def test_stress_postings_stay_consistent():
    """Writers churn while readers query, with more threads than cores
    and a tiny switch interval; every answer is internally consistent,
    and afterwards the postings count equals the live token total."""
    index = ServingIndex()
    universe = [f"s{i:02d}" for i in range(24)]
    # alphabetic words: digits split off and 1-char tokens are dropped
    vocab = ["apple", "birch", "cedar", "daisy", "elder", "fern", "grape",
             "hazel", "iris"]
    index.add_many(rec(rid, vocab[i % 9:i % 9 + 3])
                   for i, rid in enumerate(universe))
    stop = threading.Event()
    errors = []

    def writer(seed):
        rng = np.random.default_rng(seed)
        try:
            while not stop.is_set():
                rid = universe[int(rng.integers(len(universe)))]
                words = list(rng.choice(vocab, size=int(rng.integers(0, 5))))
                if rng.random() < 0.2:
                    index.remove(rid)
                elif rng.random() < 0.5:
                    index.add_many([rec(rid, words), rec(rid, words[1:])])
                else:
                    index.add(rec(rid, words))
        except Exception as error:  # pragma: no cover
            errors.append(error)

    def reader(seed):
        rng = np.random.default_rng(seed)
        try:
            while not stop.is_set():
                query = rec("q", list(rng.choice(vocab, size=3)))
                wanted = record_tokens(query)
                got = index.candidates(query, int(rng.integers(1, 30)))
                for record, score in got:
                    tokens = record_tokens(record)
                    shared = len(wanted & tokens)
                    assert score == shared / min(len(wanted), len(tokens))
                keys = [rank_key(r.record_id, s) for r, s in got]
                assert keys == sorted(set(keys))
        except Exception as error:
            errors.append(error)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(2)]
    threads += [threading.Thread(target=reader, args=(10 + i,))
                for i in range((os.cpu_count() or 1) + 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        time.sleep(0.5)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    live = [index.get(rid) for rid in universe if rid in index]
    stats = index.stats()
    assert stats["records"] == len(live) == len(index)
    assert stats["postings"] == sum(len(record_tokens(r)) for r in live)
    assert stats["tokens"] == len(set().union(*map(record_tokens, live)))
    ref = ReferenceIndex()
    ref.add_many(live)
    for word in vocab:
        query = rec("q", [word, "apple"])
        assert hits(index.candidates(query, 30)) == \
            hits(ref.candidates(query, 30))
