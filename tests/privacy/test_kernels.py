"""Kernel property tests: packed popcount/Dice must agree EXACTLY with
the pure-Python ``bin().count("1")`` reference -- not approximately.

``np.bitwise_count``, the byte-LUT cross-check, and the reference are
three independent implementations; equality across all three on arbitrary
bitsets (random, empty, all-ones, mismatched cardinalities) pins the
kernel.  Dice agreement is asserted with ``==`` on float64: the
vectorized kernel and :func:`dice_reference` perform the same IEEE
operations in the same order, so any drift is a real kernel change.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy import (
    dice_reference, dice_scores, dice_topk, naive_dice_scores, popcount,
    popcount_bytes, popcount_reference, topk_candidates,
)
from repro.privacy.kernels import BLOCK_ROWS, popcount_words

uint64s = st.integers(min_value=0, max_value=2 ** 64 - 1)


def words_array(rows):
    return np.array(rows, dtype=np.uint64)


class TestPopcount:
    @given(st.lists(uint64s, min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, row):
        packed = words_array(row)
        expected = popcount_reference(row)
        assert int(popcount(packed)) == expected
        assert int(popcount_bytes(packed)) == expected
        assert int(popcount_words(packed).sum()) == expected

    @given(st.lists(st.lists(uint64s, min_size=4, max_size=4),
                    min_size=1, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_rowwise_swar_vs_lut_vs_reference(self, rows):
        packed = words_array(rows)
        expected = np.array([popcount_reference(row) for row in rows])
        np.testing.assert_array_equal(popcount(packed), expected)
        np.testing.assert_array_equal(popcount_bytes(packed), expected)

    def test_edge_words(self):
        # empty, all-ones, single-bit patterns, alternating masks
        edge = words_array([0, 2 ** 64 - 1, 1, 2 ** 63,
                            0x5555555555555555, 0xAAAAAAAAAAAAAAAA,
                            0x0101010101010101, 0x8000000000000001])
        expected = [0, 64, 1, 1, 32, 32, 8, 2]
        np.testing.assert_array_equal(popcount_words(edge),
                                      np.array(expected, dtype=np.uint64))

    def test_empty_filter_rows(self):
        packed = np.zeros((3, 4), dtype=np.uint64)
        np.testing.assert_array_equal(popcount(packed), [0, 0, 0])

    def test_all_ones_rows(self):
        packed = np.full((2, 5), 2 ** 64 - 1, dtype=np.uint64)
        np.testing.assert_array_equal(popcount(packed), [320, 320])

    def test_shape_preserved(self):
        packed = np.zeros((2, 3, 4), dtype=np.uint64)
        assert popcount_words(packed).shape == (2, 3, 4)
        assert popcount(packed).shape == (2, 3)


class TestDice:
    @given(st.lists(uint64s, min_size=2, max_size=2),
           st.lists(st.lists(uint64s, min_size=2, max_size=2),
                    min_size=1, max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_exact_agreement_with_reference(self, query, rows):
        filters = words_array(rows)
        q = words_array(query)
        kernel = dice_scores(q, filters)
        for i, row in enumerate(rows):
            assert kernel[i] == dice_reference(query, row)  # bit-exact

    def test_both_empty_is_zero(self):
        q = np.zeros(2, dtype=np.uint64)
        filters = np.zeros((3, 2), dtype=np.uint64)
        np.testing.assert_array_equal(dice_scores(q, filters), [0.0] * 3)
        assert dice_reference([0, 0], [0, 0]) == 0.0

    def test_identical_filters_score_one(self):
        rng = np.random.default_rng(0)
        f = rng.integers(1, 2 ** 64, size=(1, 4), dtype=np.uint64)
        assert dice_scores(f[0], f)[0] == 1.0

    def test_disjoint_filters_score_zero(self):
        a = words_array([0x00FF, 0])
        b = words_array([[0xFF00, 0]])
        assert dice_scores(a, b)[0] == 0.0

    def test_mismatched_cardinalities(self):
        # very unequal weights: 1 bit vs 64 bits sharing that 1 bit
        a = words_array([1, 0])
        b = words_array([[2 ** 64 - 1, 0]])
        expected = 2.0 * 1 / (1 + 64)
        assert dice_scores(a, b)[0] == expected
        assert dice_reference([1, 0], [2 ** 64 - 1, 0]) == expected

    def test_reference_rejects_word_length_mismatch(self):
        with pytest.raises(ValueError):
            dice_reference([1, 2], [1])

    def test_naive_scores_match_kernel(self):
        rng = np.random.default_rng(1)
        filters = rng.integers(0, 2 ** 64, size=(50, 3), dtype=np.uint64)
        q = rng.integers(0, 2 ** 64, size=3, dtype=np.uint64)
        naive = naive_dice_scores(q, filters)
        np.testing.assert_array_equal(dice_scores(q, filters), naive)


class TestTopK:
    def test_includes_all_ties(self):
        scores = np.array([0.9, 0.5, 0.5, 0.5, 0.1])
        keep = set(topk_candidates(scores, 2).tolist())
        assert keep == {0, 1, 2, 3}  # every tie at the k-th score

    def test_k_at_least_n_returns_all(self):
        assert len(topk_candidates(np.array([0.3, 0.2]), 5)) == 2

    def test_dice_topk_matches_full_ranking(self):
        rng = np.random.default_rng(2)
        filters = rng.integers(0, 2 ** 64, size=(500, 4), dtype=np.uint64)
        q = rng.integers(0, 2 ** 64, size=4, dtype=np.uint64)
        pool_rows, pool_scores = dice_topk(q, filters, 7)
        got = sorted(zip(-pool_scores, pool_rows.tolist()))[:7]
        full = dice_scores(q, filters)
        expected = sorted(zip(-full, range(len(full))))[:7]
        assert got == expected

    def test_blocked_equals_unblocked(self):
        # more rows than one kernel block: the streaming pool's merge
        # must be invisible in the result
        rng = np.random.default_rng(3)
        n = BLOCK_ROWS + 513
        filters = rng.integers(0, 2 ** 64, size=(n, 2), dtype=np.uint64)
        q = rng.integers(0, 2 ** 64, size=2, dtype=np.uint64)
        pool_rows, pool_scores = dice_topk(q, filters, 9)
        got = sorted(zip(-pool_scores, pool_rows.tolist()))[:9]
        full = dice_scores(q, filters)
        expected = sorted(zip(-full, range(n)))[:9]
        assert got == expected

    def test_rows_subset_restricts_scan(self):
        rng = np.random.default_rng(4)
        filters = rng.integers(0, 2 ** 64, size=(40, 2), dtype=np.uint64)
        sub = np.array([1, 5, 7, 30])
        live = np.zeros(40, dtype=bool)
        live[sub] = True
        pool_rows, _ = dice_topk(filters[5], filters, 40, live=live)
        assert set(pool_rows.tolist()) <= set(sub.tolist())
        assert 5 in pool_rows.tolist()

    def test_live_mask_across_blocks_equals_full_ranking(self):
        # the mask drops rows after each block is scored in place; the
        # result must equal ranking only the live rows
        rng = np.random.default_rng(5)
        n = BLOCK_ROWS + 513
        filters = rng.integers(0, 2 ** 64, size=(n, 2), dtype=np.uint64)
        live = rng.random(n) < 0.6
        q = rng.integers(0, 2 ** 64, size=2, dtype=np.uint64)
        pool_rows, pool_scores = dice_topk(q, filters, 9, live=live)
        got = sorted(zip(-pool_scores, pool_rows.tolist()))[:9]
        full = dice_scores(q, filters)
        expected = sorted((-full[row], row)
                          for row in np.flatnonzero(live).tolist())[:9]
        assert got == expected
