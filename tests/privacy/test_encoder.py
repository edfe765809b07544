"""Encoder tests: keyed determinism (in-process, across fork AND spawn),
salt independence, hardening invariants, config validation, and the wire
byte round-trip.

Cross-process bit-identity is the load-bearing property: a serving pool
forks replicas and a party may re-encode on another machine entirely, so
``same salt + same record -> same filter`` must hold with no process
state involved (the encoder uses only HMAC, never Python's seeded
``hash()``).
"""

import multiprocessing
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.privacy import (
    HARDENING_MODES, ClkConfig, ClkEncoder, clk_from_bytes, clk_to_bytes,
    popcount,
)

from .conftest import make_record, make_records

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from bench_pprl import oracle_encode  # noqa: E402

SALT = "tests-shared-secret"


def _encode_in_child(salt, config_kwargs, record_values, queue):
    """Top-level so the spawn start method can pickle it."""
    from repro.data.records import EntityRecord
    from repro.privacy import ClkConfig, ClkEncoder, clk_to_bytes

    encoder = ClkEncoder(salt, ClkConfig(**config_kwargs))
    record = EntityRecord(record_id="x", kind="relational",
                          values=record_values)
    queue.put(clk_to_bytes(encoder.encode_record(record)))


def encode_via(start_method, salt, config_kwargs, record_values):
    ctx = multiprocessing.get_context(start_method)
    queue = ctx.Queue()
    child = ctx.Process(target=_encode_in_child,
                        args=(salt, config_kwargs, record_values, queue))
    child.start()
    try:
        raw = queue.get(timeout=60)
    finally:
        child.join(timeout=60)
    return clk_from_bytes(raw)


class TestDeterminism:
    def test_same_salt_same_record_in_process(self):
        record = make_record(3)
        a = ClkEncoder(SALT).encode_record(record)
        b = ClkEncoder(SALT).encode_record(record)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_bit_identical_across_processes(self, start_method):
        record = make_record(5)
        config = {"nbits": 256, "num_hashes": 8}
        parent = ClkEncoder(SALT, ClkConfig(**config)).encode_record(record)
        child = encode_via(start_method, SALT, config, dict(record.values))
        np.testing.assert_array_equal(parent, child)

    @pytest.mark.parametrize("hardening", HARDENING_MODES)
    def test_hardening_deterministic(self, hardening):
        config = ClkConfig(nbits=256, hardening=hardening)
        record = make_record(7)
        a = ClkEncoder(SALT, config).encode_record(record)
        b = ClkEncoder(SALT, config).encode_record(record)
        np.testing.assert_array_equal(a, b)

    def test_batch_matches_single(self):
        records = make_records(6)
        encoder = ClkEncoder(SALT)
        batch = encoder.encode_records(records)
        for i, record in enumerate(records):
            np.testing.assert_array_equal(batch[i],
                                          encoder.encode_record(record))


class TestSaltIndependence:
    def test_different_salts_differ(self):
        record = make_record(1)
        a = ClkEncoder("salt-a").encode_record(record)
        b = ClkEncoder("salt-b").encode_record(record)
        assert not np.array_equal(a, b)

    def test_different_salts_statistically_independent(self):
        # under independent keys the expected bit overlap of two ~half-
        # full 1024-bit filters is ~fill_a*fill_b; Dice should sit near
        # that baseline, far from the same-salt value of 1.0
        records = make_records(20)
        enc_a = ClkEncoder("salt-a")
        enc_b = ClkEncoder("salt-b")
        dices = []
        for record in records:
            a, b = enc_a.encode_record(record), enc_b.encode_record(record)
            inter = int(popcount(a & b))
            denom = int(popcount(a)) + int(popcount(b))
            dices.append(2.0 * inter / denom)
            fill_a = int(popcount(a)) / 1024
            fill_b = int(popcount(b)) / 1024
            expected = 2 * fill_a * fill_b / (fill_a + fill_b)
            assert abs(dices[-1] - expected) < 0.25
        assert max(dices) < 0.75  # nowhere near the same-salt 1.0

    def test_salt_digest_identifies_key_not_config(self):
        assert ClkEncoder("k1").salt_digest == \
            ClkEncoder("k1", ClkConfig(nbits=256)).salt_digest
        assert ClkEncoder("k1").salt_digest != ClkEncoder("k2").salt_digest

    def test_repr_never_leaks_salt(self):
        encoder = ClkEncoder("super-secret-value")
        assert "super-secret-value" not in repr(encoder)
        assert encoder.salt_digest in repr(encoder)


class TestHardening:
    def test_balance_constant_hamming_weight(self):
        config = ClkConfig(nbits=512, hardening="balance")
        encoder = ClkEncoder(SALT, config)
        for record in make_records(8):
            clk = encoder.encode_record(record)
            assert clk.shape == (config.words,)
            assert int(popcount(clk)) == 512  # nbits of 2*nbits, always

    def test_fold_halves_length(self):
        config = ClkConfig(nbits=512, hardening="fold")
        clk = ClkEncoder(SALT, config).encode_record(make_record(2))
        assert clk.shape == (4,)  # 256 bits
        assert config.encoded_nbits == 256

    def test_fold_is_xor_of_halves(self):
        plain_cfg = ClkConfig(nbits=512)
        fold_cfg = ClkConfig(nbits=512, hardening="fold")
        record = make_record(4)
        plain = ClkEncoder(SALT, plain_cfg).encode_record(record)
        folded = ClkEncoder(SALT, fold_cfg).encode_record(record)
        np.testing.assert_array_equal(folded, plain[:4] ^ plain[4:])

    def test_balance_permutation_is_salt_derived(self):
        config = ClkConfig(nbits=256, hardening="balance")
        record = make_record(6)
        a = ClkEncoder("k1", config).encode_record(record)
        b = ClkEncoder("k2", config).encode_record(record)
        assert not np.array_equal(a, b)


class TestConfigValidation:
    def test_nbits_must_be_word_multiple(self):
        with pytest.raises(ValueError):
            ClkConfig(nbits=100)
        with pytest.raises(ValueError):
            ClkConfig(nbits=0)

    def test_fold_needs_even_word_count(self):
        with pytest.raises(ValueError):
            ClkConfig(nbits=64, hardening="fold")

    def test_unknown_hardening(self):
        with pytest.raises(ValueError):
            ClkConfig(hardening="rehash")

    def test_positive_hashes_and_qgram(self):
        with pytest.raises(ValueError):
            ClkConfig(num_hashes=0)
        with pytest.raises(ValueError):
            ClkConfig(qgram=0)

    def test_position_arithmetic_fits_int64(self):
        ClkConfig(nbits=2 ** 57, num_hashes=63)
        with pytest.raises(ValueError):
            ClkConfig(nbits=2 ** 57, num_hashes=64)

    def test_salt_required(self):
        with pytest.raises(ValueError):
            ClkEncoder("")
        with pytest.raises(TypeError):
            ClkEncoder(1234)

    def test_str_and_bytes_salt_equivalent(self):
        record = make_record(9)
        np.testing.assert_array_equal(
            ClkEncoder("abc").encode_record(record),
            ClkEncoder(b"abc").encode_record(record))


class TestGramOracle:
    def test_encode_matches_gram_bits_oracle(self):
        # re-derive the filter from the public oracle methods
        encoder = ClkEncoder(SALT, ClkConfig(nbits=256, num_hashes=5))
        record = make_record(11)
        expected = oracle_encode(encoder, [record])[0]
        np.testing.assert_array_equal(encoder.encode_record(record),
                                      expected)

    def test_qgrams_sorted_unique(self):
        grams = ClkEncoder(SALT).qgrams(make_record(0))
        assert grams == sorted(set(grams))
        assert all(len(g) == 2 for g in grams)

    def test_empty_record_encodes_empty_filter(self):
        from repro.data.records import EntityRecord

        empty = EntityRecord(record_id="e", kind="relational", values={})
        clk = ClkEncoder(SALT).encode_record(empty)
        assert int(popcount(clk)) == 0


class TestWireBytes:
    def test_roundtrip(self):
        clk = ClkEncoder(SALT).encode_record(make_record(13))
        again = clk_from_bytes(clk_to_bytes(clk))
        np.testing.assert_array_equal(clk, again)
        assert again.dtype == np.uint64

    def test_rejects_ragged_length(self):
        with pytest.raises(ValueError):
            clk_from_bytes(b"\x00" * 9)

    def test_byte_layout_is_little_endian(self):
        clk = np.array([1], dtype=np.uint64)
        assert clk_to_bytes(clk) == b"\x01" + b"\x00" * 7
