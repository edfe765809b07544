"""The CLK array kernel against its oracle and against recorded filters.

``ClkEncoder.encode_records`` scatters memoized bit positions into one bit
matrix per batch, then hardens and packs it.  Three independent checks pin
it:

* a property test against the per-gram oracle -- ``gram_bits`` set one
  gram at a time, then ``_harden_and_pack`` (``oracle_encode`` in
  ``benchmarks/bench_pprl.py``, which also times it) -- over random token
  sets, filter lengths that are not powers of two, q-gram sizes, hash
  counts and every hardening mode;
* sha256 digests of a fixed synthetic catalog's filters, recorded with the
  per-gram encoder the kernel replaced.  A kernel that agreed with itself
  but drifted from the filters parties already hold (a persisted
  ``ClkCatalog``, the other party's encodings) fails here;
* concurrent encodes through one encoder, with memo caps small enough that
  every thread keeps clearing the memos under the others.
"""

import hashlib
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.records import EntityRecord
from repro.privacy import (
    HARDENING_MODES, ClkConfig, ClkEncoder, clk_to_bytes,
)
from repro.privacy import encoder as encoder_module

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from bench_pprl import oracle_encode  # noqa: E402

SALT = "kernel-oracle-salt"

#: word counts whose filter lengths (64 * words) are not powers of two
WORDS = (3, 5, 6, 7, 9, 10, 12, 15, 20)

#: record tokens are lower-case runs of two or more letters
TOKENS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=2,
                 max_size=14)


def token_record(i, tokens):
    return EntityRecord.text_record(f"t{i}", " ".join(tokens))


@st.composite
def configs(draw):
    hardening = draw(st.sampled_from(HARDENING_MODES))
    words = draw(st.sampled_from(WORDS))
    if hardening == "fold":
        words *= 2  # fold halves the filter, so it needs an even count
    return ClkConfig(nbits=64 * words,
                     num_hashes=draw(st.integers(1, 40)),
                     qgram=draw(st.integers(1, 4)),
                     hardening=hardening)


class TestKernelMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(config=configs(),
           token_sets=st.lists(st.lists(TOKENS, max_size=25), min_size=1,
                               max_size=6))
    def test_batch_and_single_equal_the_oracle(self, config, token_sets):
        records = [token_record(i, tokens)
                   for i, tokens in enumerate(token_sets)]
        encoder = ClkEncoder(SALT, config)
        batch = encoder.encode_records(records)
        assert batch.shape == (len(records), config.words)
        assert batch.dtype == np.uint64
        np.testing.assert_array_equal(
            batch, oracle_encode(ClkEncoder(SALT, config), records))
        for i, record in enumerate(records):
            np.testing.assert_array_equal(batch[i],
                                          encoder.encode_record(record))

    def test_empty_batch_and_chunk_boundaries(self, monkeypatch):
        encoder = ClkEncoder(SALT, ClkConfig(nbits=320, num_hashes=7))
        assert encoder.encode_records([]).shape == (0, 5)
        records = [token_record(i, ["kilo", "lima" * (1 + i % 3), "mike"])
                   for i in range(7)]
        whole = encoder.encode_records(records)
        monkeypatch.setattr(encoder_module, "_ENCODE_CHUNK", 3)
        np.testing.assert_array_equal(
            ClkEncoder(SALT, encoder.config).encode_records(records), whole)


class TestConcurrentEncodes:
    def test_threads_with_thrashing_memos(self, monkeypatch):
        config = ClkConfig(nbits=512, num_hashes=11, hardening="balance")
        records = [token_record(i, [f"{a}{b}" for a, b in zip(
            "abcdefghij"[i % 5:], "klmnopqrst"[i % 7:])])
            for i in range(40)]
        want = ClkEncoder(SALT, config).encode_records(records)
        monkeypatch.setattr(encoder_module, "_GRAM_CACHE_CAP", 5)
        monkeypatch.setattr(encoder_module, "_TOKEN_CACHE_CAP", 3)
        shared = ClkEncoder(SALT, config)
        failures = []

        def work(offset):
            try:
                for step in range(30):
                    i = (offset * 7 + step) % len(records)
                    got = (shared.encode_records(records) if step % 10 == 0
                           else shared.encode_record(records[i])[None])
                    expect = want if step % 10 == 0 else want[i:i + 1]
                    if not np.array_equal(got, expect):
                        failures.append((offset, step))
            except Exception as error:  # surfaced below
                failures.append(error)

        threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []


# ----------------------------------------------------------------------
# Golden filters
# ----------------------------------------------------------------------
_GOLDEN_WORDS = ("harbor", "blue", "mexican", "restaurant", "avenue", "pizza",
                 "sushi", "grill", "bistro", "noodle", "bakery", "kitchen",
                 "garden", "palace", "corner", "royal", "golden", "dragon",
                 "ocean", "street", "quartz", "jazz", "xylophone", "mm")


def golden_catalog():
    """73 records of all three kinds plus an empty one, built by plain
    arithmetic (no random generator), so the catalog, and with it the
    digests, cannot move with a library version."""
    w = _GOLDEN_WORDS
    records = []
    for i in range(72):
        name = " ".join(w[(i * 7 + j * 5) % len(w)] for j in range(1 + i % 6))
        if i % 3 == 0:
            records.append(EntityRecord.text_record(
                f"g{i}", f"{name} no. {i * 37} ({w[i % len(w)]})"))
        elif i % 3 == 1:
            records.append(EntityRecord(f"g{i}", "relational", {
                "name": name, "city": w[(i * 11) % len(w)],
                "phone": f"555-{i:04d}"}))
        else:
            records.append(EntityRecord(f"g{i}", "semi", {
                "title": name, "tags": [w[i % len(w)], w[(i + 3) % len(w)]],
                "info": {"year": 1990 + i, "maker": w[(i * 13) % len(w)]}}))
    records.append(EntityRecord("g-empty", "relational", {}))
    return records


#: sha256 of ``clk_to_bytes`` of the golden catalog's ``(N, words)``
#: filters, recorded with the per-gram encoder (one gram's ``gram_bits``
#: set at a time) before the array kernel replaced it
GOLDEN = {
    ((1024, 30, 2), "none"):
        "753666de9a6bc27fe221eb65b9c711092c2e3bf2dc7e8e4fc95abb15d4e2bbb7",
    ((1024, 30, 2), "balance"):
        "89eb2a94ebb82c574e1d23557a6eac15a9f6dbbedf37ec84cbdabc77918437ab",
    ((1024, 30, 2), "fold"):
        "147b37b136caf716a994b9911a3e4b817fe6a6b413ecc47d5ef5b29f265d70a4",
    ((384, 7, 3), "none"):
        "b9e889b3de84bd8f38425c45f5ed5e54136f9b215ceb32e289488e6766ad6e3a",
    ((384, 7, 3), "balance"):
        "e0304a8da6672d1c0bd24a5c98ac9eb4dc0b58cf9dfabd03b291adbed292569b",
    ((384, 7, 3), "fold"):
        "6c0bb66643149ffaeb0a43ce8d934bcb6fab6c6aa52fd0cfa9b8362095074ffd",
}


def golden_digest(shape, hardening):
    nbits, num_hashes, qgram = shape
    encoder = ClkEncoder("golden-catalog-salt", ClkConfig(
        nbits=nbits, num_hashes=num_hashes, qgram=qgram,
        hardening=hardening))
    return hashlib.sha256(
        clk_to_bytes(encoder.encode_records(golden_catalog()))).hexdigest()


class TestGoldenFilters:
    @pytest.mark.parametrize("shape,hardening", sorted(GOLDEN))
    def test_filters_match_recorded_digest(self, shape, hardening):
        assert golden_digest(shape, hardening) == GOLDEN[(shape, hardening)]
