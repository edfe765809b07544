"""Tests for the overlap blocker."""

import pytest

from repro.data import OverlapBlocker, blocking_recall, load_dataset
from repro.data.blocking import BlockingResult
from repro.data.generators.registry import DATASET_NAMES


class TestOverlapBlocker:
    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            OverlapBlocker(threshold=1.5)

    def test_keeps_true_matches_drops_junk(self):
        ds = load_dataset("REL-HETER")
        blocker = OverlapBlocker(threshold=0.2)
        result = blocker.block(ds.left_table, ds.right_table)
        assert 0 < len(result.candidates) < result.total_pairs
        assert result.reduction_ratio > 0.3

    def test_recall_on_known_matches(self):
        ds = load_dataset("REL-HETER")
        truth = [(p.left.record_id, p.right.record_id)
                 for split in (ds.train, ds.valid, ds.test)
                 for p in split if p.label == 1]
        result = OverlapBlocker(threshold=0.2).block(ds.left_table, ds.right_table)
        assert blocking_recall(result, truth) > 0.9

    def test_lower_threshold_keeps_more(self):
        ds = load_dataset("REL-HETER")
        loose = OverlapBlocker(threshold=0.1).block(ds.left_table, ds.right_table)
        tight = OverlapBlocker(threshold=0.6).block(ds.left_table, ds.right_table)
        assert len(loose.candidates) >= len(tight.candidates)

    def test_recall_with_no_truth_is_one(self):
        result = BlockingResult(candidates=[], total_pairs=0)
        assert blocking_recall(result, []) == 1.0

    def test_reduction_ratio_empty(self):
        # vacuous cross product: everything (nothing) was pruned, so the
        # ratio is 1.0 -- an empty job must not read as "no reduction"
        assert BlockingResult(candidates=[], total_pairs=0).reduction_ratio == 1.0

    def test_reduction_ratio_empty_beats_keep_everything(self):
        empty = BlockingResult(candidates=[], total_pairs=0)
        keep_all = BlockingResult(candidates=[(None, None)], total_pairs=1)
        assert empty.reduction_ratio > keep_all.reduction_ratio
        assert keep_all.reduction_ratio == 0.0


class TestEdgeCases:
    """Boundary behavior shared with the serving-side index (the two use
    the same record_tokens rule)."""

    @staticmethod
    def _table(name, texts):
        from repro.data.records import EntityRecord, Table

        return Table(name=name, kind="text", records=[
            EntityRecord.text_record(f"{name}{i}", text)
            for i, text in enumerate(texts)])

    def test_empty_tables(self):
        blocker = OverlapBlocker(threshold=0.2)
        result = blocker.block(self._table("l", []), self._table("r", []))
        assert result.candidates == []
        assert result.total_pairs == 0
        assert result.reduction_ratio == 1.0

    def test_empty_left_only(self):
        blocker = OverlapBlocker(threshold=0.2)
        result = blocker.block(self._table("l", []),
                               self._table("r", ["some right rows"]))
        assert result.candidates == [] and result.total_pairs == 0

    def test_no_shared_tokens_yields_no_candidates(self):
        blocker = OverlapBlocker(threshold=0.0)
        result = blocker.block(self._table("l", ["alpha beta gamma"]),
                               self._table("r", ["delta epsilon zeta"]))
        assert result.candidates == []
        assert result.total_pairs == 1
        assert result.reduction_ratio == 1.0

    def test_records_with_only_dropped_tokens(self):
        # 1-char tokens are excluded from the blocking token set, so these
        # records have no tokens and can never be candidates
        blocker = OverlapBlocker(threshold=0.0)
        result = blocker.block(self._table("l", ["a b c"]),
                               self._table("r", ["a b c"]))
        assert result.candidates == []

    def test_record_tokens_drops_markers_and_short_tokens(self):
        from repro.data.blocking import record_tokens
        from repro.data.records import EntityRecord

        record = EntityRecord(record_id="x", kind="relational",
                              values={"title": "a DB of things"})
        tokens = record_tokens(record)
        assert "[COL]" not in tokens and "[VAL]" not in tokens
        assert "a" not in tokens  # single-char dropped
        assert "db" in tokens or "DB" in tokens

    def test_empty_value_record_has_no_tokens(self):
        from repro.data.blocking import record_tokens
        from repro.data.records import EntityRecord

        assert record_tokens(EntityRecord(record_id="e", kind="relational",
                                          values={})) == frozenset()
        assert record_tokens(EntityRecord.text_record("t", "")) == frozenset()

    def test_unicode_tokens_survive(self):
        from repro.data.blocking import record_tokens
        from repro.data.records import EntityRecord

        tokens = record_tokens(EntityRecord.text_record(
            "u", "Café Müller restaurant 北京"))
        assert any("caf" in t.lower() for t in tokens)
        assert any("ller" in t.lower() for t in tokens)
        assert len(tokens) >= 2

    def test_marker_only_and_single_char_records_empty(self):
        from repro.data.blocking import record_tokens
        from repro.data.records import EntityRecord

        # values made only of serialization markers / 1-char tokens
        assert record_tokens(EntityRecord.text_record(
            "m", "[COL] [VAL]")) == frozenset()
        assert record_tokens(EntityRecord.text_record(
            "s", "a b c 1 2")) == frozenset()

    def test_tokenless_records_never_divide_by_zero(self):
        # both sides tokenless: scoring paths must not raise
        blocker = OverlapBlocker(threshold=0.0)
        result = blocker.block(self._table("l", ["a", ""]),
                               self._table("r", ["b", "[COL]"]))
        assert result.candidates == []
        assert result.reduction_ratio == 1.0

    def test_min_shared_tokens_gate(self):
        blocker = OverlapBlocker(threshold=0.0, min_shared_tokens=2)
        result = blocker.block(self._table("l", ["apple banana"]),
                               self._table("r", ["apple cherry"]))
        assert result.candidates == []  # only one shared token
        blocker = OverlapBlocker(threshold=0.0, min_shared_tokens=1)
        result = blocker.block(self._table("l", ["apple banana"]),
                               self._table("r", ["apple cherry"]))
        assert len(result.candidates) == 1


class TestTokenMemo:
    """record_tokens is memoized on content_key -- the memo must be both
    effective (same object twice -> same frozenset instance) and safe
    (a record replaced under the same id never serves stale tokens)."""

    def test_same_content_returns_cached_instance(self):
        from repro.data.blocking import clear_token_cache, record_tokens
        from repro.data.records import EntityRecord

        clear_token_cache()
        record = EntityRecord.text_record("memo1", "alpha beta gamma")
        first = record_tokens(record)
        again = record_tokens(
            EntityRecord.text_record("memo1", "alpha beta gamma"))
        assert first == {"alpha", "beta", "gamma"}
        assert again is first  # served from the memo, not recomputed

    def test_mutated_content_readd_not_stale(self):
        # the serving catalog replaces records under an existing id; the
        # memo keys on content, so the new version gets fresh tokens
        from repro.data.blocking import clear_token_cache, record_tokens
        from repro.data.records import EntityRecord

        clear_token_cache()
        old = EntityRecord.text_record("same-id", "alpha beta")
        assert record_tokens(old) == {"alpha", "beta"}
        new = EntityRecord.text_record("same-id", "delta epsilon")
        assert record_tokens(new) == {"delta", "epsilon"}
        # and the old version is still individually correct (not evicted
        # into returning the new tokens)
        assert record_tokens(old) == {"alpha", "beta"}

    def test_serving_index_replacement_uses_fresh_tokens(self):
        from repro.data.records import EntityRecord
        from repro.serve import ServingIndex

        index = ServingIndex(default_k=3)
        index.add(EntityRecord.text_record("r1", "alpha beta"))
        index.add(EntityRecord.text_record("r1", "delta epsilon"))
        hits = index.candidates(
            EntityRecord.text_record("q", "delta epsilon"), 3)
        assert [r.record_id for r, _ in hits] == ["r1"]
        assert index.candidates(
            EntityRecord.text_record("q", "alpha beta"), 3) == []

    def test_cache_capacity_bounded(self):
        import repro.data.blocking as blocking
        from repro.data.blocking import clear_token_cache, record_tokens
        from repro.data.records import EntityRecord

        clear_token_cache()
        cap = blocking._TOKEN_CACHE_CAP
        old_cap = cap
        blocking._TOKEN_CACHE_CAP = 8
        try:
            for i in range(32):
                record_tokens(
                    EntityRecord.text_record(f"cap{i}", f"token{i} value"))
            assert len(blocking._token_cache) <= 8
        finally:
            blocking._TOKEN_CACHE_CAP = old_cap
            clear_token_cache()


class TestAgainstBruteForce:
    """The index sweep keeps exactly the pairs a pairwise scan over every
    left x right pair keeps, in ``(-score, right id)`` order per left
    record, on every dataset."""

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_equals_pairwise_overlap(self, name):
        from repro.data.blocking import record_tokens

        ds = load_dataset(name)
        right = [(r, record_tokens(r)) for r in ds.right_table]
        shared = {}
        for left in ds.left_table:
            mine = record_tokens(left)
            shared[left.record_id] = [
                (r, len(mine & theirs), min(len(mine), len(theirs)))
                for r, theirs in right]
        for threshold in (0.0, 0.3, 0.6):
            for min_shared in (1, 2):
                want = []
                for left in ds.left_table:
                    kept = [(r, count / smaller)
                            for r, count, smaller in shared[left.record_id]
                            if count >= min_shared
                            and count / smaller >= threshold]
                    kept.sort(key=lambda hit: (-hit[1], hit[0].record_id))
                    want += [(left.record_id, r.record_id) for r, _ in kept]
                result = OverlapBlocker(threshold, min_shared).block(
                    ds.left_table, ds.right_table)
                got = [(l.record_id, r.record_id)
                       for l, r in result.candidates]
                assert got == want, (threshold, min_shared)
