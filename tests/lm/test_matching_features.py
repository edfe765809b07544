"""Tests for the scale-bridging features: duplicate flags + matched heads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import MultiHeadAttention, Tensor
from repro.lm import LMConfig, MiniLM

from .reference_flags import duplicate_flags as reference_flags


class TestDuplicateFlags:
    def test_repeated_tokens_flagged(self):
        ids = np.array([[2, 10, 11, 3, 10, 12]])
        flags = MiniLM.duplicate_flags(ids)
        np.testing.assert_array_equal(flags, [[0, 1, 0, 0, 1, 0]])

    def test_special_tokens_never_flagged(self):
        # [CLS]=2 and [SEP]=3 repeat but ids < 7 are specials.
        ids = np.array([[2, 3, 2, 3, 2, 3]])
        flags = MiniLM.duplicate_flags(ids)
        np.testing.assert_array_equal(flags, np.zeros((1, 6)))

    def test_padding_never_flagged(self):
        ids = np.array([[10, 0, 0, 0]])
        flags = MiniLM.duplicate_flags(ids)
        np.testing.assert_array_equal(flags, np.zeros((1, 4)))

    def test_per_row_independence(self):
        ids = np.array([[10, 11], [10, 10]])
        flags = MiniLM.duplicate_flags(ids)
        np.testing.assert_array_equal(flags, [[0, 0], [1, 1]])

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(1, 6).flatmap(lambda width: st.lists(
        st.lists(st.integers(0, 24), min_size=width, max_size=width),
        min_size=1, max_size=5)))
    def test_equals_per_row_reference(self, rows):
        # ids 0-6 are pad and special ids; a small id range makes repeats,
        # repeated specials and repeated pads all common
        ids = np.array(rows)
        flags = MiniLM.duplicate_flags(ids)
        assert flags.dtype == np.int64 and flags.shape == ids.shape
        np.testing.assert_array_equal(flags, reference_flags(ids))

    @pytest.mark.parametrize("shape,vocab", [((85, 48), 725), ((8, 96), 725),
                                             ((3, 96), 40)])
    def test_padded_batches_equal_reference(self, shape, vocab):
        rng = np.random.default_rng(sum(shape))
        ids = rng.integers(7, vocab, size=shape)
        ids[:, 0], ids[:, shape[1] // 2] = 2, 3  # [CLS], [SEP]
        ids[1:, -7:] = 0  # padded rows
        np.testing.assert_array_equal(MiniLM.duplicate_flags(ids),
                                      reference_flags(ids))

    @pytest.mark.parametrize("shape", [(0, 5), (3, 0), (0, 0)])
    def test_empty_shapes(self, shape):
        ids = np.zeros(shape, dtype=np.int64)
        np.testing.assert_array_equal(MiniLM.duplicate_flags(ids),
                                      reference_flags(ids))

    def test_flags_change_encoding(self):
        cfg = LMConfig(vocab_size=30, d_model=16, num_layers=1, num_heads=2,
                       d_ff=32, max_len=10, dropout=0.0)
        model = MiniLM(cfg)
        model.eval()
        with_dup = model.encode(np.array([[2, 10, 10, 3]])).numpy()
        without = model.encode(np.array([[2, 10, 11, 3]])).numpy()
        assert not np.allclose(with_dup[0, 1], without[0, 1])


class TestMatchedHeads:
    def test_matched_head_qk_identical_at_init(self):
        rng = np.random.default_rng(0)
        attn = MultiHeadAttention(8, 2, rng=rng, matched_heads=1)
        d_head = 4
        np.testing.assert_array_equal(
            attn.q_proj.weight.numpy()[:, :d_head],
            attn.k_proj.weight.numpy()[:, :d_head])
        # The unmatched head differs.
        assert not np.allclose(attn.q_proj.weight.numpy()[:, d_head:],
                               attn.k_proj.weight.numpy()[:, d_head:])

    def test_matched_heads_bounds(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(8, 2, matched_heads=3)

    def test_lmconfig_default_has_matched_heads(self):
        assert LMConfig(vocab_size=10).matched_heads == 2

    def test_matched_head_attends_to_duplicates(self):
        """With matched Q/K, a token's attention score to its twin exceeds
        its score to an unrelated token (before training)."""
        rng = np.random.default_rng(1)
        d = 16
        attn = MultiHeadAttention(d, 1, rng=rng, matched_heads=1, dropout=0.0)
        attn.eval()
        tok_a = rng.standard_normal(d)
        tok_b = rng.standard_normal(d)
        tok_c = rng.standard_normal(d)
        x = Tensor(np.stack([tok_a, tok_b, tok_a, tok_c])[None])
        q = (x @ attn.q_proj.weight + attn.q_proj.bias).numpy()[0]
        k = (x @ attn.k_proj.weight + attn.k_proj.bias).numpy()[0]
        twin_score = q[0] @ k[2]
        other_score = q[0] @ k[3]
        assert twin_score > other_score
