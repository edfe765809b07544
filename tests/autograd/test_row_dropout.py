"""Row-mask dropout draws: the masks the encoder's pruned last layer uses.

The last layer computes one position per sequence, so its dropouts draw
only those rows of the full mask and skip the rest with ``advance``. These
properties pin that contract: every kept entry equals the full-shape draw
at ``rows``, and the module's generator continues exactly as if the full
mask had been drawn (so later draws, pseudo-labels and training
trajectories are unchanged).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Dropout, DropoutPlan, dropout_plan
from repro.autograd.layers import row_uniforms


def at_rows(full: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Slice a full (B, ..., T, W) array at ``rows[b]`` of axis -2."""
    batch, length, width = full.shape[0], full.shape[-2], full.shape[-1]
    flat = full.reshape(batch, -1, length, width)
    return flat[np.arange(batch), :, rows].reshape(
        full.shape[:-2] + (1, width))


@st.composite
def row_cases(draw, tiles=1):
    per_tile = draw(st.integers(1, 4))
    middle = draw(st.lists(st.integers(1, 3), max_size=1))
    length = draw(st.integers(1, 6))
    width = draw(st.integers(1, 5))
    shape = (tiles * per_tile, *middle, length, width)
    rows = np.array(draw(st.lists(st.integers(0, length - 1),
                                  min_size=shape[0], max_size=shape[0])))
    p = draw(st.sampled_from([0.1, 0.3, 0.5]))
    seed = draw(st.integers(0, 2**31 - 1))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return shape, rows, p, seed, dtype


def kept_mask(drop, shape, dtype, rows):
    """The row mask for the (B, ..., 1, W) activation of a full ``shape``."""
    return drop.keep_mask(shape[:-2] + (1, shape[-1]), dtype, rows=rows,
                          seq_len=shape[-2])


def twin_dropouts(p, seed):
    first = Dropout(p, rng=np.random.default_rng(seed))
    second = Dropout(p, rng=np.random.default_rng(seed))
    second.seed_salt = first.seed_salt
    return first.train(), second.train()


@settings(max_examples=80, deadline=None)
@given(row_cases())
def test_module_rng_row_draw_equals_full_draw(case):
    shape, rows, p, seed, dtype = case
    full_drop, row_drop = twin_dropouts(p, seed)
    full = full_drop.keep_mask(shape, dtype)
    kept = kept_mask(row_drop, shape, dtype, rows)
    assert kept.dtype == dtype
    np.testing.assert_array_equal(kept, at_rows(full, rows))
    # the generator ends where the full draw leaves it
    np.testing.assert_array_equal(row_drop.rng.random(7),
                                  full_drop.rng.random(7))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda tiles: st.tuples(st.just(tiles), row_cases(tiles=tiles))),
    st.integers(0, 9))
def test_tiled_plan_row_draw_equals_full_draw(tiled, batch_index):
    tiles, (shape, rows, p, seed, dtype) = tiled
    full_drop, row_drop = twin_dropouts(p, 0)
    plan = DropoutPlan(base_seed=seed,
                       pass_seeds=tuple(range(5, 5 + tiles)),
                       batch_index=batch_index)
    with dropout_plan(plan):
        full = full_drop.keep_mask(shape, dtype)
        kept = kept_mask(row_drop, shape, dtype, rows)
    np.testing.assert_array_equal(kept, at_rows(full, rows))
    # plan-seeded masks never touch the module rng
    np.testing.assert_array_equal(row_drop.rng.random(3),
                                  full_drop.rng.random(3))


def test_generators_that_cannot_skip_fall_back_to_full_draw():
    shape, rows = (3, 2, 5, 4), np.array([4, 0, 2])
    for make in (lambda: np.random.Generator(np.random.MT19937(7)),
                 lambda: np.random.default_rng(7)):
        full_rng, row_rng = make(), make()
        # a buffered 32-bit half would be dropped by ``advance``
        full_rng.integers(0, 5, dtype=np.uint32)
        row_rng.integers(0, 5, dtype=np.uint32)
        full = full_rng.random(shape)
        kept = row_uniforms(row_rng, shape, rows)
        np.testing.assert_array_equal(kept, at_rows(full, rows))
        assert row_rng.integers(0, 2**32, dtype=np.uint32) == \
            full_rng.integers(0, 2**32, dtype=np.uint32)
        np.testing.assert_array_equal(row_rng.random(3), full_rng.random(3))


def test_mask_dtype_matches_float64_then_cast():
    shape = (50, 7)
    for dtype in (np.float32, np.float64):
        drop = Dropout(0.3, rng=np.random.default_rng(1)).train()
        mask = drop.keep_mask(shape, dtype)
        reference = ((np.random.default_rng(1).random(shape) >= 0.3)
                     / (1.0 - 0.3)).astype(dtype)
        assert mask.dtype == dtype
        np.testing.assert_array_equal(mask, reference)


def test_rows_must_cover_the_batch():
    with pytest.raises(ValueError, match="one row per batch entry"):
        row_uniforms(np.random.default_rng(0), (3, 4, 2), np.array([0, 1]))
